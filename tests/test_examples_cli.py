"""Smoke tests for the example scripts and the experiment CLI entry point.

The heavier examples (quickstart, bootstrap_policies, introducer_economics)
wrap the simulator and experiment code the rest of the suite tests; here we
make sure every example module is importable, the lightweight ones run to
completion, and the CLI produces a report and exit code.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro import cli

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    """Import an example script as a module without executing __main__."""
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ALL_EXAMPLES = [
    "quickstart.py",
    "bootstrap_policies.py",
    "introducer_economics.py",
    "newcomer_problem.py",
    "reproduce_paper.py",
]


class TestExampleScripts:
    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_example_exists_and_imports(self, name):
        module = load_example(name)
        assert hasattr(module, "main"), f"{name} must expose a main() function"
        assert module.__doc__, f"{name} must have a module docstring"

    def test_newcomer_problem_runs(self, capsys):
        module = load_example("newcomer_problem.py")
        module.main()
        output = capsys.readouterr().out
        assert "eigentrust" in output
        assert "stranger" in output

    def test_reproduce_paper_runs_single_experiment(self, tmp_path, capsys):
        module = load_example("reproduce_paper.py")
        exit_code = module.main(
            ["--scale", "0.01", "--repeats", "1", "--only", "table1",
             "--out", str(tmp_path)]
        )
        assert exit_code == 0
        assert (tmp_path / "report.md").exists()
        assert (tmp_path / "table1.json").exists()
        output = capsys.readouterr().out
        assert "Reproduction report" in output


class TestCatalogueListing:
    """``catalogue scenarios`` / ``catalogue adversaries``: sorted, complete, exit 0."""

    @staticmethod
    def listed_names(output: str) -> list[str]:
        return [line.split()[0] for line in output.strip().splitlines()]

    def test_list_scenarios_is_sorted(self, capsys):
        exit_code = cli.main(["catalogue", "scenarios"])
        assert exit_code == 0
        names = self.listed_names(capsys.readouterr().out)
        assert names == sorted(names)
        assert "tiny_test" in names
        # The attack presets generated from the adversary registry are listed.
        assert "whitewash_waves_attack" in names
        assert "sybil_swarm_attack" in names

    def test_list_adversaries_is_sorted_and_matches_registry(self, capsys):
        from repro.config import ADVERSARY_STRATEGIES

        exit_code = cli.main(["catalogue", "adversaries"])
        assert exit_code == 0
        output = capsys.readouterr().out
        names = self.listed_names(output)
        assert names == sorted(names)
        assert set(names) == set(ADVERSARY_STRATEGIES)
        # Each entry carries a description, not just a bare name.
        for line in output.strip().splitlines():
            assert len(line.split(None, 1)) == 2, line

    def test_listing_flags_short_circuit_before_any_simulation(
        self, capsys, monkeypatch
    ):
        # Listing reads the registries only; it never runs a simulation.
        from repro.sim.engine import Simulation

        def refuse(self):
            raise AssertionError("catalogue listing ran a simulation")

        monkeypatch.setattr(Simulation, "run", refuse)
        for section in ("scenarios", "adversaries"):
            assert cli.main(["catalogue", section]) == 0
        assert "figure1" not in capsys.readouterr().out


class TestRunnerCli:
    def test_main_returns_zero_when_checks_pass(self, tmp_path, capsys):
        exit_code = cli.main(
            ["experiment", "--scale", "0.01", "--repeats", "1",
             "--only", "table1", "--out", str(tmp_path)]
        )
        assert exit_code == 0
        assert (tmp_path / "report.md").exists()
        output = capsys.readouterr().out
        assert "table1" in output

    def test_main_returns_one_when_a_check_fails(self, capsys, monkeypatch):
        from repro.analysis.comparison import ShapeCheck
        from repro.experiments import Table1Parameters

        monkeypatch.setattr(
            Table1Parameters,
            "checks",
            lambda self: [
                ShapeCheck(name="forced failure", predicate=lambda _: (False, "x"))
            ],
        )
        exit_code = cli.main(["experiment", "--only", "table1"])
        assert exit_code == 1
        assert "| forced failure | FAIL | x |" in capsys.readouterr().out

    def test_main_without_output_directory(self, capsys):
        exit_code = cli.main(["experiment", "--scale", "0.01", "--repeats", "1",
                              "--only", "table1"])
        assert exit_code == 0
        assert "Reproduction report" in capsys.readouterr().out

    def test_every_finished_run_reports_its_tx_per_s(self, capsys):
        # figure1 (not table1) because table1 runs no simulations; figure1
        # runs two at one repeat.  No flag asks for the rate.
        exit_code = cli.main(["experiment", "--scale", "0.002", "--repeats", "1",
                              "--only", "figure1"])
        assert exit_code == 0
        lines = capsys.readouterr().err.splitlines()
        finished = [line for line in lines if " done (" in line]
        assert len(finished) == 2
        assert all(line.endswith(" tx/s") for line in finished)

    def test_progress_line_formats_rate(self):
        from repro.metrics.summary import RunSummary
        from repro.parallel.executor import progress_line
        from repro.parallel.specs import RunSpec
        from repro.workloads.scenarios import tiny_test

        params = tiny_test(seed=1)
        spec = RunSpec(params=params, seed=1, sweep="s", label="p",
                       repeat=0, total_repeats=1)
        summary = RunSummary(
            params=params, seed=1,
            final_cooperative=0, final_uncooperative=0, final_waiting=0,
            final_rejected=0, arrivals_cooperative=0,
            arrivals_uncooperative=0, admitted_cooperative=0,
            admitted_uncooperative=0, refusals={},
            refused_due_to_introducer_reputation=0,
            refused_uncooperative_by_selective=0, transactions_attempted=3000,
            transactions_served=0, transactions_denied=0, success_rate=0.0,
            introductions_granted=0, audits_passed=0, audits_failed=0,
            total_reputation_lent=0.0, total_rewards_paid=0.0,
            total_stakes_lost=0.0, elapsed_seconds=1.5,
        )
        assert progress_line(spec, summary, 1, 2, cached=False) == (
            "[s] point=p repeat=1/1 done (1/2) in 1.50s, 2,000 tx/s"
        )
        assert progress_line(spec, summary, 2, 2, cached=True) == (
            "[s] point=p repeat=1/1 done (2/2), cached"
        )
        summary.elapsed_seconds = 0.0
        assert progress_line(spec, summary, 1, 2, cached=False).endswith(
            " in 0.00s, n/a"
        )
