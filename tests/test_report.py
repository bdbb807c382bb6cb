"""Tests for the consolidated report generator (and its CLI/HTTP surfaces).

The load-bearing contract is byte determinism: at a fixed seed the merged
JSON and Markdown artifacts are a pure function of the configuration — no
wall-clock fields, sorted keys and seed-derived experiment results.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro import cli
from repro.api import SimulationService
from repro.api.errors import UnknownNameError
from repro.api.server import MAX_RUN_TRANSACTIONS, ReputationServer
from repro.config import SimulationParameters
from repro.report import (
    REPORT_SECTIONS,
    generate_report,
    planned_transactions,
    render_json,
    render_markdown,
    resolve_report_sections,
    write_report,
)

#: A minuscule base: 2 schemes x 1 attack at this horizon is 2 short runs.
TINY_BASE = SimulationParameters(
    num_initial_peers=25,
    num_transactions=800,
    arrival_rate=0.05,
    waiting_period=50.0,
    sample_interval=200.0,
    audit_transactions=5,
    seed=17,
)


def tiny_report(sections=None):
    return generate_report(
        sections,
        scale=1.0,
        repeats=1,
        seed=17,
        base_params=TINY_BASE,
        schemes=["rocq", "tit_for_tat"],
        attacks=["whitewash_waves"],
    )


class TestSections:
    def test_default_is_every_section_in_canonical_order(self):
        assert resolve_report_sections(None) == REPORT_SECTIONS

    def test_selection_is_reordered_canonically_and_deduplicated(self):
        assert resolve_report_sections(["detection", "robustness", "detection"]) == (
            "robustness",
            "detection",
        )

    def test_unknown_section_raises_with_did_you_mean(self):
        with pytest.raises(UnknownNameError) as excinfo:
            resolve_report_sections(["detectoin"])
        assert excinfo.value.kind == "report section"
        assert excinfo.value.hint == "detection"

    def test_unknown_scheme_and_attack_are_validated_up_front(self):
        with pytest.raises(UnknownNameError):
            generate_report(["detection"], schemes=["rqoc"])
        with pytest.raises(UnknownNameError):
            generate_report(["detection"], attacks=["whitwash_waves"])


class TestGenerateReport:
    def test_merges_both_sections_deterministically(self):
        first = tiny_report()
        second = tiny_report()
        assert render_json(first) == render_json(second)
        assert render_markdown(first) == render_markdown(second)
        assert first["sections"] == ["robustness", "detection"]
        assert first["robustness"]["experiment_id"] == "robustness_matrix"
        assert first["detection"]["experiment_id"] == "detection_eval"
        assert first["checks"]["total"] > 0

    def test_json_rendering_is_standard_json(self):
        document = tiny_report(sections=["detection"])
        # NaN cells (undetected adversaries) must serialise as null, not as
        # bare NaN tokens.
        parsed = json.loads(render_json(document))
        assert parsed["sections"] == ["detection"]

    def test_section_filter_skips_experiments(self):
        document = tiny_report(sections=[])
        assert document["sections"] == []
        assert "robustness" not in document
        assert "detection" not in document
        assert document["checks"]["total"] == 0

    def test_config_block_records_the_grid(self):
        document = tiny_report(sections=[])
        assert document["config"]["seed"] == 17
        assert document["config"]["schemes"] == ["rocq", "tit_for_tat"]
        assert document["config"]["attacks"] == ["whitewash_waves"]

    def test_write_report_persists_both_artifacts(self, tmp_path):
        document = tiny_report(sections=["detection"])
        json_path, markdown_path = write_report(document, tmp_path / "out")
        assert json.loads(json_path.read_text())["sections"] == ["detection"]
        assert markdown_path.read_text() == render_markdown(document)
        # Re-writing the same document produces identical bytes.
        first_bytes = json_path.read_bytes()
        write_report(document, tmp_path / "out")
        assert json_path.read_bytes() == first_bytes


class TestPlannedTransactions:
    def test_default_report_fits_the_server_budget(self):
        # 2 sections x 6 schemes x 5 attacks x 3 repeats, each cell's 50,000
        # transactions (scale 0.1 of 500k) capped at 20,000.
        assert planned_transactions() == 3_600_000 < MAX_RUN_TRANSACTIONS

    def test_plan_counts_every_run_the_report_makes(self, tmp_path):
        arguments = dict(
            scale=1.0,
            repeats=2,
            seed=17,
            base_params=TINY_BASE,
            schemes=["rocq", "tit_for_tat"],
            attacks=["whitewash_waves"],
        )
        with SimulationService(cache=tmp_path) as service:
            generate_report(service=service, **arguments)
            runs = service.cache.misses
        assert runs == 2 * 2 * 2
        assert planned_transactions(**arguments) == runs * TINY_BASE.num_transactions


class TestReportCli:
    def run_cli(self, capsys, argv):
        exit_code = cli.main(argv)
        captured = capsys.readouterr()
        return exit_code, captured.out, captured.err

    def test_detection_report_renders_markdown(self, capsys, tmp_path):
        exit_code, out, err = self.run_cli(
            capsys,
            [
                "report",
                "--scenario",
                "tiny_test",
                "--seed",
                "17",
                "--repeats",
                "1",
                "--sections",
                "detection",
                "--schemes",
                "rocq",
                "--attacks",
                "whitewash_waves",
                "--out",
                str(tmp_path / "report"),
            ],
        )
        assert exit_code == 0
        assert out.startswith("# Consolidated report")
        assert "## detection_eval — " in out
        assert "| rocq | " in out
        assert (tmp_path / "report" / "report.json").exists()
        assert (tmp_path / "report" / "report.md").read_text() == out

    def test_json_flag_prints_the_document(self, capsys):
        exit_code, out, _ = self.run_cli(capsys, ["report", "--sections", "--json"])
        assert exit_code == 0
        assert json.loads(out)["sections"] == []

    def test_unknown_section_exits_2_with_hint(self, capsys):
        exit_code, _, err = self.run_cli(capsys, ["report", "--sections", "detectoin"])
        assert exit_code == 2
        assert "did you mean 'detection'" in err

    def test_bench_is_an_unknown_section(self, capsys):
        exit_code, _, err = self.run_cli(capsys, ["report", "--sections", "bench"])
        assert exit_code == 2
        assert "unknown report section 'bench'" in err

    def test_retired_bench_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exited:
            cli.main(["report", "--bench", "bench.json"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --bench" in capsys.readouterr().err

    def test_unknown_scheme_exits_2(self, capsys):
        exit_code, _, err = self.run_cli(
            capsys, ["report", "--sections", "detection", "--schemes", "rqoc"]
        )
        assert exit_code == 2
        assert "unknown reputation scheme" in err


@contextmanager
def running_server(store_url: str, **kwargs):
    server = ReputationServer(store_url, port=0, **kwargs)
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve_forever()), daemon=True
    )
    thread.start()
    assert server.started.wait(timeout=10), "server did not bind in time"
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive(), "server did not shut down cleanly"


def get(server, path, timeout=120):
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}{path}", timeout=timeout
        ) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestReportEndpoint:
    def test_get_report_runs_the_detection_grid(self):
        with running_server("memory://report-endpoint") as server:
            status, document = get(
                server,
                "/report?scenario=tiny_test&seed=17&repeats=1"
                "&sections=detection&schemes=rocq&attacks=whitewash_waves",
            )
        assert status == 200
        assert document["sections"] == ["detection"]
        assert document["detection"]["experiment_id"] == "detection_eval"
        # Sanitised to standard JSON: a NaN cell arrives as null, never as a
        # parse error (urllib+json.loads above would have thrown).
        assert document["config"]["schemes"] == ["rocq"]

    def test_bad_query_values_are_400(self):
        with running_server("memory://report-endpoint-errors") as server:
            status, document = get(server, "/report?sections=nope")
            assert status == 400
            assert "unknown report section" in document["error"]
            status, document = get(server, "/report?seed=abc")
            assert status == 400
            assert "seed" in document["error"]

    def test_comma_separated_sections_run_in_canonical_order(self):
        with running_server("memory://report-endpoint-commas") as server:
            status, document = get(
                server,
                "/report?scenario=tiny_test&seed=17&repeats=1"
                "&sections=detection,robustness&schemes=rocq&attacks=whitewash_waves",
            )
        assert status == 200
        assert document["sections"] == ["robustness", "detection"]
        assert document["robustness"]["experiment_id"] == "robustness_matrix"

    def test_bench_is_an_unknown_section_over_http(self):
        with running_server("memory://report-endpoint-bench") as server:
            status, document = get(server, "/report?sections=bench")
        assert status == 400
        assert "unknown report section 'bench'" in document["error"]
