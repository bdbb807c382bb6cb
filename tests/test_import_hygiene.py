"""The package runs without numpy.

The package has no runtime dependency.  The simulator and the scenario
fuzzer draw from the pure-Python :class:`repro.rng.Stream`, EigenTrust
iterates in pure Python, and the detection metrics and ``TimeSeries.mean``
sum floats with :func:`repro.numeric.pairwise_sum`.  numpy is only the tests'
reference.  Each probe runs in a fresh interpreter with numpy's import
blocked, so it fails wherever a module still imports numpy, even on a host
that has numpy installed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_BLOCK_NUMPY = """
import sys


class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockNumpy())
"""

#: ``import repro``, the module behind every subcommand (``run`` and
#: ``catalogue`` live in the CLI module itself) and the modules that once
#: imported numpy.
_MODULES = (
    "repro",
    "repro.__main__",
    "repro.cli",
    "repro.api.server",
    "repro.trace",
    "repro.workloads.fuzz",
    "repro.experiments.runner",
    "repro.experiments",
    "repro.detection",
    "repro.reputation.eigentrust",
    "repro.reputation.comparison",
)

_IMPORTS = """
import importlib

failures = []
for module in {modules!r}:
    try:
        importlib.import_module(module)
    except ImportError as error:
        failures.append(f"{{module}}: {{error}}")
assert not failures, failures
""".format(modules=_MODULES)

# One complete run per numpy-free computation: a simulation, an EigenTrust
# run, a fuzzed scenario, the newcomer comparison and the detection metrics.
_RUNS = """
from repro.detection import auc, brier_score, reliability_diagram
from repro.reputation.comparison import compare_newcomer_treatment
from repro.sim.engine import run_simulation
from repro.workloads.fuzz import FuzzConfig, fuzz_scenario, run_fuzz_scenario
from repro.workloads.scenarios import tiny_test

summary = run_simulation(tiny_test(seed=1))
summary.mean_cooperative_reputation
run_simulation(tiny_test(seed=1).with_overrides(reputation_scheme="eigentrust"))
run_fuzz_scenario(fuzz_scenario(FuzzConfig(max_transactions=200), 0))
compare_newcomer_treatment(interactions=100)
auc([0.9, 0.2, 0.5], [1, 0, 1])
brier_score([0.9, 0.2], [1, 0])
reliability_diagram([0.9, 0.2], [1, 0])
"""


def _run_blocked(probe: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    process = subprocess.run(
        [sys.executable, "-c", _BLOCK_NUMPY + probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert process.returncode == 0, process.stderr[-3000:]


def test_every_subcommand_imports_without_numpy():
    _run_blocked(_IMPORTS)


def test_simulation_path_does_not_import_numpy():
    _run_blocked(_RUNS)
