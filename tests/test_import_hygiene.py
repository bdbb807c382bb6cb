"""What a process of the package imports.

The package has no runtime dependency.  The simulator and the scenario
fuzzer draw from the pure-Python :class:`repro.rng.Stream`, EigenTrust
iterates in pure Python, and the detection metrics and ``TimeSeries.mean``
sum floats with :func:`repro.numeric.pairwise_sum`.  numpy is only the tests'
reference.  The numpy probes run with numpy's import blocked, so they fail
wherever a module still imports numpy, even on a host that has numpy
installed.

A simulation process also leaves out what it never calls: OpenSSL (every
digest uses the interpreter's own SHA from :mod:`repro.ids`, where the build
has one), the server's event loop, and the executor stack behind sweeps and
the run cache.  The CLI leaves out OpenSSL and asyncio until ``repro serve``
needs them.  Every probe runs in a fresh interpreter, so no other test's
imports leak into it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DATA_DIR = Path(__file__).resolve().parent / "data"

_BLOCK = """
import sys


class Block:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in {blocked!r}:
            raise ImportError(f"{{name}} is blocked")
        return None


sys.meta_path.insert(0, Block())
"""

_BLOCK_NUMPY = _BLOCK.format(blocked=("numpy",))

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


#: OpenSSL's hash backend, which only an interpreter with its own SHA-1 and
#: SHA-256 leaves out: a build configured without them
#: (``--with-builtin-hashlib-hashes=blake2``) takes both from :mod:`hashlib`.
_OPENSSL = (
    ("_hashlib",)
    if find_spec("_sha1") and (find_spec("_sha2") or find_spec("_sha256"))
    else ()
)

#: Modules a simulation never calls: OpenSSL's hash backend, the server's
#: TLS and event loop, and the executor stack behind sweeps and the cache.
_UNUSED_BY_SIMULATION = (
    *_OPENSSL,
    "ssl",
    "asyncio",
    "concurrent.futures",
    "repro.parallel.executor",
    "repro.parallel.cache",
    "repro.workloads.sweep",
    "repro.analysis",
)

# What a benchmark repetition or a CI canary does in its process.
_SIMULATION_FOOTPRINT = """
import sys

import repro
import repro.workloads.fuzz
from repro.metrics.summary import summary_digest
from repro.sim.engine import Simulation
from repro.workloads.fuzz import check_invariants
from repro.workloads.scenarios import tiny_test

sim = Simulation(tiny_test(seed=1))
summary = sim.run()
summary_digest(summary)
assert not check_invariants(sim, summary)
sim.store.state_digest()
loaded = [name for name in {unused!r} if name in sys.modules]
assert not loaded, loaded
""".format(unused=_UNUSED_BY_SIMULATION)

# The CLI, and the content hash that identifies a trace file in a replay's
# fingerprint.
_CLI_FOOTPRINT = """
import sys

import repro.cli
from repro.trace.log import trace_file_digest

trace_file_digest(repro.cli.__file__)
loaded = [name for name in {unused!r} if name in sys.modules]
assert not loaded, loaded
""".format(unused=(*_OPENSSL, "ssl", "asyncio"))

# Each name of the three packages that import some of theirs on first
# access, resolved the way ``from package import *`` does.
_EXPORTS = """
import importlib

for package_name in ("repro.api", "repro.parallel", "repro.workloads"):
    package = importlib.import_module(package_name)
    names = {}
    exec(f"from {package_name} import *", names)
    for name in package.__all__:
        module = package._LAZY.get(name)
        if module is not None:
            owner = importlib.import_module(module, package_name)
            assert names[name] is getattr(owner, name), (package_name, name)
    assert not hasattr(package, "no_such_name"), package_name
"""

_SHA_MATCHES_HASHLIB = """
import hashlib

from repro.ids import sha1, sha256

for data in (b"", b"replica:17:2", bytes(range(256)) * 4096):
    assert sha1(data).digest() == hashlib.sha1(data).digest()
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    assert sha1(data, usedforsecurity=False).digest() == hashlib.sha1(data).digest()
    assert sha256(data, usedforsecurity=False).digest() == (
        hashlib.sha256(data).digest()
    )
"""

# tiny_test at seed 5 is the run recorded in ``preopt_tiny.jsonl``.
_FALLBACK = """
import hashlib

from repro import ids
from repro.metrics.summary import summary_digest
from repro.sim.engine import Simulation
from repro.workloads.scenarios import tiny_test

assert ids.sha1 is hashlib.sha1 and ids.sha256 is hashlib.sha256
digest = summary_digest(Simulation(tiny_test(seed=5)).run())
assert digest == {golden!r}, digest
"""


def _run(probe: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    process = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert process.returncode == 0, process.stderr[-3000:]


def _run_blocked(probe: str) -> None:
    _run(_BLOCK_NUMPY + probe)


def test_every_subcommand_imports_without_numpy():
    _run_blocked(_IMPORTS)


def test_simulation_path_does_not_import_numpy():
    _run_blocked(_RUNS)


def test_simulation_process_loads_neither_openssl_nor_the_executor_stack():
    _run(_SIMULATION_FOOTPRINT)


def test_cli_process_loads_neither_openssl_nor_asyncio():
    _run(_CLI_FOOTPRINT)


def test_every_exported_name_resolves_to_its_submodules_object():
    _run(_EXPORTS)


def test_builtin_sha_matches_hashlib():
    _run(_SHA_MATCHES_HASHLIB)


def test_hashlib_fallback_reproduces_the_golden_digest():
    lines = (DATA_DIR / "preopt_tiny.jsonl").read_text(encoding="utf-8").splitlines()
    golden = json.loads(lines[-1])["summary_digest"]
    blocked = _BLOCK.format(blocked=("_sha1", "_sha2", "_sha256"))
    _run(blocked + _FALLBACK.format(golden=golden))
