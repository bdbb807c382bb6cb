"""The simulation path never imports numpy.

Every simulation process pays for what it imports: each perfbench
repetition, each ``--jobs`` worker and each ``repro serve``.  numpy alone was
about a quarter of a 50k-transaction run's peak memory, so the simulator
draws from the pure-Python :class:`repro.rng.Stream` and numpy is imported
only by the code that computes with it (EigenTrust, the detection metrics,
the scenario fuzzer's generators and ``TimeSeries.as_arrays``).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# What perfbench's simulation process imports, the CLI and the HTTP server,
# then one complete run.
_PROBE = """
import sys

import repro.api.server
import repro.cli
import repro.metrics.summary
import repro.sim.engine
import repro.workloads.registry
from repro.sim.engine import run_simulation
from repro.workloads.fuzz import check_invariants
from repro.workloads.scenarios import tiny_test

run_simulation(tiny_test(seed=1))
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_simulation_path_does_not_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    process = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert process.returncode == 0, process.stderr[-3000:]
