"""The repository benchmark: every workload behind one command.

    python3 perfbench/run.py --workload growth_stress --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Prints every metric by name and unit on stderr and, as the last line of
stdout, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json``, or with
``--trace 1`` its per-layer metrics.  README.md in this directory describes
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import serve  # noqa: E402
from layers import EXACT_COUNTS, layer_metrics  # noqa: E402

WORKLOADS = ("growth_stress", "paper_steady", "serve_mixed")
DEFAULT_SEED = 1

#: ``summary_digest`` of each sim workload's run at the default seed.
PINNED_DIGESTS = {
    "growth_stress": "fd9747457db45c9e21cdfb88285ac6b34b28c3aca0dc7f7f7f6daf2feeea985d",
    "paper_steady": "37f0e60445280ae031cd8d32bb77999a1a58aedd2e27e3bdba07c0e5e177f0d0",
}

#: Repetitions (fresh processes) of an untraced sim run.
SIM_MIN_REPS = 3
SIM_MAX_REPS = 20
CHILD_TIMEOUT_S = 170


def spawn_sim(workload: str, seed: int, trace: bool = False) -> dict:
    """Run ``simproc.py`` once and return its record with client-side times."""
    command = [sys.executable, str(HERE / "simproc.py"),
               "--workload", workload, "--seed", str(seed)]
    if trace:
        command.append("--trace")
    spawned = time.monotonic()
    process = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
    if process.returncode != 0:
        raise RuntimeError(
            f"{workload} simulation exited with {process.returncode}:\n"
            + process.stderr[-3000:]
        )
    record = json.loads(process.stdout.splitlines()[-1])
    record["setup_s"] = record["first_transaction"] - spawned
    record["turnaround_s"] = record["summary_ready"] - spawned
    return record


def sim_errors(workload: str, seed: int, reps: list[dict]) -> list[str]:
    """One line per repetition that broke an invariant or changed digest."""
    expected = PINNED_DIGESTS[workload] if seed == DEFAULT_SEED else reps[0]["digest"]
    errors = []
    for index, rep in enumerate(reps):
        if rep["violations"]:
            errors.append(f"run {index}: invariants broken: {rep['violations']}")
        elif rep["digest"] != expected:
            errors.append(f"run {index}: digest {rep['digest']} != {expected}")
    return errors


def measure_sim(workload: str, seed: int, seconds: float) -> dict:
    """Fresh-process repetitions of one seed for ``seconds``.

    Timings are the best repetition's: on a shared host other tenants only
    ever slow a run down, so the least disturbed repetition repeats from run
    to run where the median follows the neighbours.  Set-up time and memory
    are medians.
    """
    began = time.monotonic()
    reps: list[dict] = []
    while len(reps) < SIM_MAX_REPS:
        reps.append(spawn_sim(workload, seed))
        elapsed = time.monotonic() - began
        if len(reps) >= SIM_MIN_REPS and elapsed / len(reps) * (len(reps) + 1) > seconds:
            break
    errors = sim_errors(workload, seed, reps)
    tx_per_s = [rep["transactions"] / rep["run_s"] for rep in reps]
    metrics = {
        "tx_per_s": max(tx_per_s),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "run_turnaround_s": min(rep["turnaround_s"] for rep in reps),
    }
    return {
        "metrics": metrics,
        "attempted": len(reps),
        "failed": len(errors),
        "errors": errors,
        "notes": [f"{len(reps)} runs of {reps[0]['transactions']} transactions, "
                  f"{min(tx_per_s):.0f} to {max(tx_per_s):.0f} tx/s"],
    }


def measure_sim_traced(workload: str, seed: int) -> dict:
    """One untraced and two traced runs of one seed; per-layer metrics."""
    untraced = spawn_sim(workload, seed)
    traced = [spawn_sim(workload, seed, trace=True) for _ in range(2)]
    errors = sim_errors(workload, seed, [untraced, *traced])
    layers = [layer_metrics(rep["spans"], rep["counts"]) for rep in traced]
    exact = [name for name in layers[0] if name.endswith(".calls") or name in EXACT_COUNTS]
    unstable = [name for name in exact if layers[0][name] != layers[1][name]]
    unstable += [
        name for name, value in untraced["counts"].items()
        if traced[0]["counts"][name] != value
    ]
    if unstable:
        errors.append(f"exact counts differ between runs of seed {seed}: {unstable}")
    metrics = {
        name: layers[0][name] if name in exact else statistics.fmean(
            layer[name] for layer in layers
        )
        for name in layers[0]
    }
    # The server's request loop is not part of a sim workload.
    for name in serve.SERVE_METRICS:
        metrics[name] = 0.0
    metrics["trace.overhead"] = (
        statistics.fmean(rep["run_s"] for rep in traced) / untraced["run_s"] - 1.0
    )
    return {
        "metrics": metrics,
        "attempted": 4,
        "failed": len(errors),
        "errors": errors,
        "notes": [f"traced run {traced[0]['run_s']:.3f} s, untraced "
                  f"{untraced['run_s']:.3f} s"],
    }


def report(workload: str, seed: int, trace: bool, result: dict) -> None:
    """Print the table on stderr and the result object on stdout."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    if missing:
        raise RuntimeError(f"{workload} did not measure {missing}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload}  seed {seed}  {'traced' if trace else 'untraced'}",
          file=sys.stderr)
    for metric in declared:
        value = result["metrics"][metric["name"]]
        print(f"  {metric['name']:<36} {value:>16.6g} {metric['unit']:<8} "
              f"({metric['better']} is better)", file=sys.stderr)
    print(f"  {'error_rate':<36} {failed / attempted:>16.6g} fraction "
          f"({failed} of {attempted} operations failed)", file=sys.stderr)
    for line in result["notes"]:
        print(f"  note: {line}", file=sys.stderr)
    for line in result["errors"]:
        print(f"  FAILED: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            if workload == "serve_mixed":
                result = serve.measure(args.seed, args.seconds, bool(args.trace), work_root)
            elif args.trace:
                result = measure_sim_traced(workload, args.seed)
            else:
                result = measure_sim(workload, args.seed, args.seconds)
            report(workload, args.seed, bool(args.trace), result)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    if not (SRC / "repro").is_dir():
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.exit(main())
