"""serve_mixed: one ``repro serve`` process under a mixed read/write load.

Each session starts a server on a fresh sqlite store with ``--port 0`` and
reads the announced port back, waits for the first 200 from ``/health``, runs
one run to completion so reads have data, then drives two clients from this
process for a fixed window:

* the **reader** is open-loop: it sends ``GET /reputation/rocq/<peer>`` at
  ``READ_RATE`` per second and times each read from when it was *due*, so a
  stall also counts against the reads scheduled behind it (a closed-loop
  reader would hide it);
* the **writer** is closed-loop: it submits a small persisted run, polls it
  until it is done, then submits the next, so one run is in flight at a time.

The session ends with ``POST /shutdown``, after which the server must exit 0.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from layers import layer_metrics
from tracing import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Reads per second of the open-loop reader.
READ_RATE = 50.0
#: The writer's status poll interval.
POLL_S = 0.02
#: The writer starts this long after the reader, so every session has reads
#: with no run in flight.
WRITER_LEAD_S = 1.0
#: Scenario of the writer's runs, and how many distinct seeds it cycles.
RUN_SCENARIO = "tiny_test"
WRITER_SEEDS = 4
#: Sessions per untraced run; setup time is their median, run timings are
#: the best session's (other tenants of a shared host only slow runs down).
SESSIONS = 5
#: Reads the untraced session of a traced run collects, so the read p99
#: has ten samples beyond it.
MIN_READS = 1100
#: Per-layer metrics only this workload measures (zero on the others).
SERVE_METRICS = (
    "api.run_wait_s",
    "api.read_p50_ms",
    "api.read_p99_ms",
    "api.read_busy_p50_ms",
    "api.read_idle_p50_ms",
)
#: Start-up, preload and shutdown of one session, outside the timed window.
SESSION_OVERHEAD_S = 1.5
HTTP_TIMEOUT_S = 10.0
RUN_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0


class Ledger:
    """Attempted and failed operations, shared by the client threads."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, what: str = "") -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(what)
        return ok


def run_bodies(seed: int) -> list[dict]:
    """The writer's run requests, with seeds derived from the workload seed."""
    return [
        {"scenario": RUN_SCENARIO, "seed": seed * 100 + index}
        for index in range(WRITER_SEEDS)
    ]


def call(port: int, method: str, path: str, body: dict | None = None):
    """One HTTP request: ``(status, document)``, or ``(None, error)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        payload = None if body is None else json.dumps(body).encode()
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else None
    except (OSError, http.client.HTTPException, ValueError) as exc:
        return None, f"{method} {path}: {exc!r}"
    finally:
        connection.close()


def submit_and_wait(port: int, body: dict, ledger: Ledger, in_flight=None):
    """Submit one run and poll it to its end; ``None`` if a request failed."""
    sent = time.monotonic()
    if in_flight is not None:
        in_flight.set()
    try:
        status, document = call(port, "POST", "/runs", body)
        if not ledger.record(status == 202, f"POST /runs: {status} {document}"):
            return None
        path = f"/runs/{document['run']}"
        while True:
            time.sleep(POLL_S)
            status, document = call(port, "GET", path)
            if not ledger.record(status == 200, f"GET {path}: {status} {document}"):
                return None
            if document["status"] != "running":
                break
            if time.monotonic() - sent > RUN_TIMEOUT_S:
                ledger.record(False, f"{path} still running after {RUN_TIMEOUT_S} s")
                return None
        return {
            "seed": body["seed"],
            "status": document["status"],
            "digest": document["digest"],
            "turnaround_s": time.monotonic() - sent,
        }
    finally:
        if in_flight is not None:
            in_flight.clear()


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _peak_rss_mb(pid: int) -> float:
    """The process's peak resident set so far (``VmHWM``), in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def _drive(port, seed, subjects, bodies, window_s, ledger, session) -> None:
    """Run the reader and the writer side by side for ``window_s`` seconds."""
    in_flight = threading.Event()
    start = time.monotonic() + 0.05
    stop = start + window_s

    def reader() -> None:
        rng = random.Random(seed)
        index = 0
        while True:
            due = start + index / READ_RATE
            if due >= stop:
                return
            index += 1
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            busy = in_flight.is_set()
            subject = subjects[rng.randrange(len(subjects))]
            status, _ = call(port, "GET", f"/reputation/rocq/{subject}")
            done = time.monotonic()
            if ledger.record(status == 200, f"GET /reputation/rocq/{subject}: {status}"):
                session["reads"].append((done - due, sent - due, busy))

    def writer() -> None:
        time.sleep(max(0.0, start + WRITER_LEAD_S - time.monotonic()))
        index = 0
        while time.monotonic() < stop:
            run = submit_and_wait(port, bodies[index % len(bodies)], ledger, in_flight)
            if run is not None:
                session["runs"].append(run)
            index += 1

    threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def run_session(seed: int, window_s: float, work_dir: Path, ledger: Ledger,
                spans_path: Path | None = None) -> dict:
    """Start a server, load it for ``window_s`` seconds, shut it down."""
    store = work_dir / "store.db"
    if spans_path is None:
        command = [sys.executable, "-m", "repro", "serve", "--store", str(store),
                   "--port", "0"]
    else:
        command = [sys.executable, str(HERE / "launcher.py"), "--store", str(store),
                   "--spans", str(spans_path)]
    bodies = run_bodies(seed)
    session: dict = {"reads": [], "runs": []}
    log_path = work_dir / "server.log"
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        process = subprocess.Popen(
            command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
            stderr=log, text=True,
        )
        lines: queue.Queue = queue.Queue()

        def drain() -> None:
            for line in process.stdout:
                lines.put(line)
            lines.put(None)

        drainer = threading.Thread(target=drain, daemon=True)
        drainer.start()
        try:
            line = lines.get(timeout=START_TIMEOUT_S)
            match = re.search(r"listening on http://[^:]+:(\d+)", line or "")
            if match is None:
                raise RuntimeError(
                    f"server did not announce a port: {line!r}\n"
                    + log_path.read_text()[-2000:]
                )
            port = int(match.group(1))
            deadline = time.monotonic() + START_TIMEOUT_S
            while call(port, "GET", "/health")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("server never answered /health with 200")
                time.sleep(0.005)
            session["setup_s"] = time.monotonic() - spawned
            ledger.record(True)
            session["preload"] = submit_and_wait(port, bodies[0], ledger)
            status, document = call(port, "GET", "/reputation/rocq")
            subjects = [peer["subject"] for peer in (document or {}).get("peers", [])]
            if not ledger.record(status == 200 and bool(subjects), "no peers to read"):
                raise RuntimeError(f"GET /reputation/rocq: {status} {document}")
            _drive(port, seed, subjects, bodies, window_s, ledger, session)
            session["peak_rss_mb"] = _peak_rss_mb(process.pid)
            status, _ = call(port, "POST", "/shutdown")
            ledger.record(status == 202, f"POST /shutdown: {status}")
            code = process.wait(timeout=START_TIMEOUT_S)
            ledger.record(code == 0, f"server exited with code {code}")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            drainer.join(timeout=5)
            process.stdout.close()
    return session


def _expected_digests(bodies: list[dict]) -> tuple[dict[int, str], int]:
    """Digests of the writer's requests run directly, and their horizon."""
    from repro.api import RunRequest, SimulationService

    requests = [RunRequest.from_dict(body) for body in bodies]
    with SimulationService() as service:
        digests = {request.seed: service.run(request).digest() for request in requests}
    return digests, requests[0].resolve().num_transactions


def measure(seed: int, seconds: float, trace: bool, work_root: Path) -> dict:
    """One serve_mixed run: end-to-end metrics, or per-layer ones if traced."""
    ledger = Ledger()
    if trace:
        # An untraced session long enough for the read p99, then the traced one.
        untraced_window = MIN_READS / READ_RATE
        traced_window = max(4.0, seconds - 2 * SESSION_OVERHEAD_S - untraced_window)
        windows = [untraced_window, traced_window]
    else:
        windows = [max(2.0, seconds / SESSIONS - SESSION_OVERHEAD_S)] * SESSIONS
    sessions = []
    for index, window in enumerate(windows):
        work_dir = Path(tempfile.mkdtemp(dir=work_root))
        spans_path = work_dir / "spans.json" if trace and index == 1 else None
        try:
            session = run_session(seed, window, work_dir, ledger, spans_path)
            if spans_path is not None:
                session["trace"] = json.loads(spans_path.read_text())
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        sessions.append(session)

    digests, transactions = _expected_digests(run_bodies(seed))
    for session in sessions:
        for run in [session["preload"], *session["runs"]]:
            ok = run is not None and run["status"] == "done" and (
                run["digest"] == digests[run["seed"]]
            )
            ledger.record(ok, f"run {run} does not match its direct digest")

    def good_runs(chosen: list[dict]) -> list[dict]:
        return [
            run for session in chosen for run in session["runs"]
            if run["status"] == "done" and run["digest"] == digests[run["seed"]]
        ]

    # The traced session times the server with wrappers in place; reads come
    # from the untraced sessions only.
    read_sessions = sessions[:1] if trace else sessions
    reads = [read for session in read_sessions for read in session["reads"]]
    latencies_ms = [read[0] * 1000 for read in reads]
    lags_ms = sorted(read[1] * 1000 for read in reads)
    notes = [
        f"reads {len(reads)} at {READ_RATE:g}/s, p50 "
        f"{percentile(latencies_ms, 50):.3f} ms; sent late by p50 "
        f"{lags_ms[len(lags_ms) // 2]:.3f} ms, max {lags_ms[-1]:.3f} ms (not gated)",
    ]
    if trace:
        untraced, traced = good_runs(sessions[:1]), good_runs(sessions[1:])
        dump = sessions[1]["trace"]
        metrics = layer_metrics(dump["spans"], dump["counts"])
        metrics["api.run_wait_s"] = statistics.median(dump["run_waits_s"])
        metrics["api.read_p50_ms"] = percentile(latencies_ms, 50)
        metrics["api.read_p99_ms"] = percentile(latencies_ms, 99)
        metrics["api.read_busy_p50_ms"] = percentile(
            [read[0] * 1000 for read in reads if read[2]], 50
        )
        metrics["api.read_idle_p50_ms"] = percentile(
            [read[0] * 1000 for read in reads if not read[2]], 50
        )
        metrics["trace.overhead"] = (
            statistics.median(run["turnaround_s"] for run in traced)
            / statistics.median(run["turnaround_s"] for run in untraced)
            - 1.0
        )
    else:
        per_session = [
            [run["turnaround_s"] for run in good_runs([session])] for session in sessions
        ]
        metrics = {
            "tx_per_s": max(
                transactions * len(times) / sum(times) for times in per_session
            ),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
            "setup_s": statistics.median(s["setup_s"] for s in sessions),
            "run_turnaround_s": min(statistics.median(times) for times in per_session),
        }
        notes.append(
            f"runs per session {[len(times) for times in per_session]}, "
            f"{transactions} transactions each"
        )
    return {
        "metrics": metrics,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "errors": ledger.errors,
        "notes": notes,
    }
