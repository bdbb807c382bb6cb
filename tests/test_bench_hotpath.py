"""Tests for the hot-path benchmark subsystem (``repro.bench``)."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro import cli
from repro.bench import (
    HotpathBenchConfig,
    bench_assignment_lookup,
    bench_end_to_end,
    bench_ring_ops,
    run_hotpath_benchmarks,
    write_report,
)
from repro.bench.hotpath import compare_reports, format_compare_table


#: Sub-second sizes so the suite stays fast; the real trajectory numbers are
#: produced by ``python -m repro bench`` at the default sizes.
TINY = HotpathBenchConfig(
    num_transactions=60,
    ring_sizes=(32,),
    churn_ops=8,
    lookup_ring_size=32,
    lookups=40,
    warmup=0,
    samples=1,
)

#: The report contract: consumers (CI artifact diffing, the committed
#: repo-root report, the README tables) key into these names.
EXPECTED_TOP_KEYS = {
    "benchmark",
    "description",
    "created_unix",
    "python",
    "python_implementation",
    "platform",
    "machine",
    "cpu_count",
    "config",
    "end_to_end",
    "quick_reference",
    "micro",
}
EXPECTED_MICRO_KEYS = {
    "ring_ops",
    "assignment_lookup",
    "eigentrust_refresh",
}
#: Provenance fields that make cross-machine comparisons interpretable.
EXPECTED_PROVENANCE_KEYS = {
    "python",
    "python_implementation",
    "platform",
    "machine",
    "cpu_count",
}
EXPECTED_CONFIG_KEYS = {
    "num_transactions",
    "seed",
    "ring_sizes",
    "churn_ops",
    "lookup_ring_size",
    "lookups",
    "warmup",
    "samples",
}
EXPECTED_END_TO_END_KEYS = {
    "workload",
    "num_transactions",
    "arrival_rate",
    "expected_arrivals",
    "elapsed_seconds",
    "tx_per_sec",
}


class TestReport:
    def test_report_structure(self):
        report = run_hotpath_benchmarks(TINY)
        assert report["benchmark"] == "hotpath"
        assert {row["workload"] for row in report["end_to_end"]} == {
            "figure1_growth",
            "growth_stress",
        }
        for row in report["end_to_end"]:
            assert row["tx_per_sec"] > 0

    def test_ring_ops_rows(self):
        rows = bench_ring_ops(TINY)
        assert [row["ring_size"] for row in rows] == [32]
        assert rows[0]["ops"] == 16
        assert rows[0]["us_per_op"] > 0

    def test_assignment_lookup_row(self):
        row = bench_assignment_lookup(TINY)
        assert row["ring_size"] == 32
        assert row["cold_us_per_lookup"] > 0
        assert row["cached_us_per_lookup"] > 0
        eviction = row["targeted_eviction"]
        assert 0 <= eviction["evicted_by_one_join"] <= eviction["cached_subjects"]

    def test_write_report_round_trips(self, tmp_path):
        report = {"benchmark": "hotpath", "end_to_end": []}
        path = write_report(report, tmp_path / "BENCH_hotpath.json")
        assert json.loads(path.read_text(encoding="utf-8")) == report


class TestWarmupEdgeCases:
    def test_quick_config_uses_zero_warmup_iterations(self):
        assert HotpathBenchConfig.quick().warmup == 0
        assert HotpathBenchConfig().warmup == 1  # full runs warm up by default

    @pytest.mark.parametrize("warmup,expected_runs", [(0, 2), (1, 4), (2, 6)])
    def test_warmup_runs_are_untimed_extras(self, monkeypatch, warmup, expected_runs):
        """Each workload runs ``warmup`` extra untimed simulations."""
        import repro.bench.hotpath as hotpath_module

        calls: list[int] = []

        def fake_timed_run(params):
            calls.append(1)
            return 0.5

        monkeypatch.setattr(hotpath_module, "_timed_run", fake_timed_run)
        rows = bench_end_to_end(replace(TINY, warmup=warmup))
        assert len(calls) == expected_runs  # 2 workloads x (w + 1)
        assert all(row["elapsed_seconds"] == 0.5 for row in rows)


class TestReportSchema:
    """BENCH_hotpath.json is a contract: its keys must stay stable."""

    def test_generated_report_keys(self):
        report = run_hotpath_benchmarks(TINY)
        assert set(report) == EXPECTED_TOP_KEYS
        assert set(report["config"]) == EXPECTED_CONFIG_KEYS
        assert set(report["micro"]) == EXPECTED_MICRO_KEYS
        for row in report["end_to_end"]:
            assert set(row) == EXPECTED_END_TO_END_KEYS

    def test_provenance_fields_are_populated(self):
        """Cross-machine comparisons need python/platform/CPU provenance."""
        report = run_hotpath_benchmarks(TINY)
        assert report["python"]  # e.g. "3.11.7"
        assert report["python_implementation"]  # e.g. "CPython"
        assert report["platform"]  # full platform.platform() string
        assert report["machine"]
        assert isinstance(report["cpu_count"], int) and report["cpu_count"] >= 1

    def test_committed_report_matches_the_schema(self):
        committed_path = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"
        committed = json.loads(committed_path.read_text(encoding="utf-8"))
        assert set(committed) == EXPECTED_TOP_KEYS
        assert set(committed["config"]) == EXPECTED_CONFIG_KEYS
        assert set(committed["micro"]) == EXPECTED_MICRO_KEYS
        for key in EXPECTED_PROVENANCE_KEYS:
            assert committed[key], key
        for row in committed["end_to_end"]:
            assert set(row) == EXPECTED_END_TO_END_KEYS


class TestCli:
    def test_quick_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        # Even --quick runs two full simulations; shrink further via argv is
        # not exposed, so this is the one intentionally-slower test (~5 s).
        exit_code = cli.main(["bench", "--quick", "--out", str(out)])
        assert exit_code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["config"]["warmup"] == 0  # --quick skips warm-up
        captured = capsys.readouterr()
        assert "report written to" in captured.out

    def test_warmup_flag_overrides_the_config(self, tmp_path, monkeypatch):
        # The CLI (python -m repro bench) runs the suite via
        # SimulationService.bench, which resolves run_hotpath_benchmarks on
        # the hotpath module at call time.
        import repro.bench.hotpath as hotpath_module

        seen: dict[str, int] = {}

        def fake_run(config):
            seen["warmup"] = config.warmup
            return {
                "end_to_end": [],
                "micro": {
                    "ring_ops": [],
                    "assignment_lookup": {
                        "cold_us_per_lookup": 1.0,
                        "cached_us_per_lookup": 1.0,
                        "cache_speedup": 1.0,
                        "targeted_eviction": {
                            "evicted_by_one_join": 0,
                            "cached_subjects": 0,
                        },
                    },
                },
            }

        monkeypatch.setattr(hotpath_module, "run_hotpath_benchmarks", fake_run)
        out = tmp_path / "bench.json"
        exit_code = cli.main(["bench", "--quick", "--warmup", "3", "--out", str(out)])
        assert exit_code == 0
        assert seen["warmup"] == 3

    def test_negative_warmup_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(
                ["bench", "--quick", "--warmup", "-1", "--out", str(tmp_path / "x")]
            )


def _report_with(
    workload: str,
    tx_per_sec: float,
    num_transactions: int | None = None,
    quick_tx_per_sec: float | None = None,
) -> dict:
    row: dict = {"workload": workload, "tx_per_sec": tx_per_sec}
    if num_transactions is not None:
        row["num_transactions"] = num_transactions
    report: dict = {"platform": "test-rig", "end_to_end": [row]}
    if quick_tx_per_sec is not None:
        report["quick_reference"] = [
            {
                "workload": workload,
                "num_transactions": 600,
                "tx_per_sec": quick_tx_per_sec,
            }
        ]
    return report


class TestCompare:
    """The --compare primitive the CI perf gate calls."""

    def test_within_tolerance_passes(self):
        comparison = compare_reports(
            _report_with("growth_stress", 100.0),
            _report_with("growth_stress", 80.0),
            tolerance=0.25,
        )
        assert not comparison["regressed"]
        assert comparison["workloads"][0]["delta"] == pytest.approx(-0.2)

    def test_beyond_tolerance_regresses(self):
        comparison = compare_reports(
            _report_with("growth_stress", 100.0),
            _report_with("growth_stress", 70.0),
            tolerance=0.25,
        )
        assert comparison["regressed"]
        assert comparison["workloads"][0]["regression"]

    def test_faster_than_baseline_always_passes(self):
        comparison = compare_reports(
            _report_with("growth_stress", 100.0),
            _report_with("growth_stress", 500.0),
        )
        assert not comparison["regressed"]

    def test_unmatched_workloads_are_listed_not_gated(self):
        comparison = compare_reports(
            _report_with("figure1_growth", 100.0),
            _report_with("growth_stress", 1.0),
        )
        assert not comparison["regressed"]
        assert {row["workload"] for row in comparison["workloads"]} == {
            "figure1_growth",
            "growth_stress",
        }

    def test_quick_run_gates_against_quick_reference(self):
        """A --quick run is judged against the baseline's quick-size rows."""
        baseline = _report_with(
            "growth_stress", 8800.0, num_transactions=5000, quick_tx_per_sec=10000.0
        )
        current = _report_with("growth_stress", 4000.0, num_transactions=600)
        comparison = compare_reports(baseline, current, tolerance=0.25)
        row = comparison["workloads"][0]
        assert row["baseline_source"] == "quick_reference"
        assert row["baseline_tx_per_sec"] == 10000.0
        assert comparison["regressed"]

    def test_quick_run_within_tolerance_of_quick_reference_passes(self):
        baseline = _report_with(
            "growth_stress", 8800.0, num_transactions=5000, quick_tx_per_sec=10000.0
        )
        current = _report_with("growth_stress", 9000.0, num_transactions=600)
        comparison = compare_reports(baseline, current, tolerance=0.25)
        assert not comparison["regressed"]

    def test_quick_vs_quick_compares_best_against_worst(self):
        """Noise-robust gate: current best-of-N vs baseline worst good run."""
        baseline = _report_with(
            "growth_stress", 8800.0, num_transactions=5000, quick_tx_per_sec=10000.0
        )
        current = _report_with("growth_stress", 7000.0, num_transactions=600)
        current["quick_reference"] = [
            {
                "workload": "growth_stress",
                "num_transactions": 600,
                "tx_per_sec": 6000.0,
                "best_tx_per_sec": 9000.0,
            }
        ]
        comparison = compare_reports(baseline, current, tolerance=0.25)
        row = comparison["workloads"][0]
        assert row["baseline_source"] == "quick_reference"
        assert row["current_tx_per_sec"] == 9000.0  # best, not the e2e sample
        assert not comparison["regressed"]
        current["quick_reference"][0]["best_tx_per_sec"] = 4000.0
        assert compare_reports(baseline, current, tolerance=0.25)["regressed"]

    def test_scale_mismatch_without_quick_reference_is_not_gated(self):
        """Cross-scale tx/s carries no signal: report the delta, never gate."""
        baseline = _report_with("figure1_growth", 16000.0, num_transactions=5000)
        current = _report_with("figure1_growth", 8000.0, num_transactions=600)
        comparison = compare_reports(baseline, current, tolerance=0.25)
        row = comparison["workloads"][0]
        assert row["baseline_source"] == "scale_mismatch"
        assert row["delta"] == pytest.approx(-0.5)
        assert not comparison["regressed"]
        assert "n/a (scale)" in format_compare_table(comparison)

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_reports({}, {}, tolerance=1.5)

    def test_format_compare_table_mentions_verdict(self):
        comparison = compare_reports(
            _report_with("growth_stress", 100.0),
            _report_with("growth_stress", 70.0),
        )
        table = format_compare_table(comparison)
        assert "REGRESSION" in table and "FAIL" in table

    def test_cli_compare_gate_exit_codes(self, tmp_path, monkeypatch):
        """`repro bench --compare` exits 1 on regression, 0 otherwise."""
        import repro.bench.hotpath as hotpath_module

        baseline = tmp_path / "baseline.json"
        fake_report = {
            "end_to_end": [
                {
                    "workload": "growth_stress",
                    "tx_per_sec": 100.0,
                    "elapsed_seconds": 0.1,
                }
            ],
            "micro": {
                "ring_ops": [],
                "assignment_lookup": {
                    "cold_us_per_lookup": 1.0,
                    "cached_us_per_lookup": 1.0,
                    "cache_speedup": 1.0,
                    "targeted_eviction": {
                        "evicted_by_one_join": 0,
                        "cached_subjects": 0,
                    },
                },
            },
        }
        monkeypatch.setattr(
            hotpath_module, "run_hotpath_benchmarks", lambda config: fake_report
        )
        out = tmp_path / "bench.json"

        baseline.write_text(
            json.dumps(_report_with("growth_stress", 50.0)), encoding="utf-8"
        )
        assert (
            cli.main(
                ["bench", "--quick", "--out", str(out), "--compare", str(baseline)]
            )
            == 0
        )

        baseline.write_text(
            json.dumps(_report_with("growth_stress", 1_000.0)), encoding="utf-8"
        )
        assert (
            cli.main(
                ["bench", "--quick", "--out", str(out), "--compare", str(baseline)]
            )
            == 1
        )
        # A generous tolerance lets the same numbers pass.
        assert (
            cli.main(
                [
                    "bench",
                    "--quick",
                    "--out",
                    str(out),
                    "--compare",
                    str(baseline),
                    "--tolerance",
                    "0.95",
                ]
            )
            == 0
        )

    def test_cli_compare_missing_baseline_is_usage_error(self, tmp_path, monkeypatch):
        import repro.bench.hotpath as hotpath_module

        monkeypatch.setattr(
            hotpath_module,
            "run_hotpath_benchmarks",
            lambda config: {
                "end_to_end": [],
                "micro": {
                    "ring_ops": [],
                    "assignment_lookup": {
                        "cold_us_per_lookup": 1.0,
                        "cached_us_per_lookup": 1.0,
                        "cache_speedup": 1.0,
                        "targeted_eviction": {
                            "evicted_by_one_join": 0,
                            "cached_subjects": 0,
                        },
                    },
                },
            },
        )
        exit_code = cli.main(
            [
                "bench",
                "--quick",
                "--out",
                str(tmp_path / "b.json"),
                "--compare",
                str(tmp_path / "missing.json"),
            ]
        )
        assert exit_code == 2
