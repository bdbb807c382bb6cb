"""Tests for the consolidated CLI (``python -m repro``).

The contracts pinned here:

* the ``catalogue`` subcommand lists every registry, in both text and
  ``--json`` modes;
* ``run`` executes end-to-end and its digest matches the service path;
* unknown scheme/scenario/adversary/experiment names exit with code 2 and
  a did-you-mean hint, consistently across subcommands.
"""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.api import catalogue


def run_cli(capsys, argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI and return (exit code, stdout, stderr)."""
    exit_code = cli.main(argv)
    captured = capsys.readouterr()
    return exit_code, captured.out, captured.err


class TestCatalogueSubcommand:
    def test_single_section_text_matches_legacy_listing_format(self, capsys):
        exit_code, out, _ = run_cli(capsys, ["catalogue", "adversaries"])
        assert exit_code == 0
        lines = out.strip().splitlines()
        names = [line.split()[0] for line in lines]
        assert names == sorted(names)
        assert set(names) == set(catalogue()["adversaries"])
        for line in lines:  # every entry is "name  description"
            assert len(line.split(None, 1)) == 2, line

    def test_all_sections_text_has_headers(self, capsys):
        exit_code, out, _ = run_cli(capsys, ["catalogue"])
        assert exit_code == 0
        for section in (
            "schemes",
            "scenarios",
            "adversaries",
            "experiments",
            "fuzz-generators",
        ):
            assert f"[{section}]" in out

    def test_json_mode_round_trips_the_catalogue(self, capsys):
        exit_code, out, _ = run_cli(capsys, ["catalogue", "--json"])
        assert exit_code == 0
        assert json.loads(out) == catalogue()

    def test_json_mode_single_section_is_nested(self, capsys):
        exit_code, out, _ = run_cli(capsys, ["catalogue", "schemes", "--json"])
        assert exit_code == 0
        assert json.loads(out) == {"schemes": catalogue()["schemes"]}

    def test_unknown_section_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["catalogue", "schemas"])
        assert excinfo.value.code == 2


class TestRunSubcommand:
    ARGS = ["run", "--scenario", "tiny_test", "--seed", "5", "--quiet"]

    def test_end_to_end_text_output(self, capsys):
        exit_code, out, _ = run_cli(capsys, self.ARGS)
        assert exit_code == 0
        assert "decision success rate" in out
        assert "digest:" in out

    def test_json_output_matches_service_digest(self, capsys):
        from repro.api import RunRequest, SimulationService

        exit_code, out, _ = run_cli(capsys, [*self.ARGS, "--json"])
        assert exit_code == 0
        document = json.loads(out)
        with SimulationService() as service:
            expected = service.run(RunRequest(scenario="tiny_test", seed=5))
        assert document["digest"] == expected.digest()
        assert document["request"]["scenario"] == "tiny_test"
        assert len(document["summaries"]) == 1

    def test_json_output_carries_throughput_keys(self, capsys):
        """`run --json` surfaces tx_per_sec and elapsed_seconds."""
        exit_code, out, _ = run_cli(capsys, [*self.ARGS, "--json"])
        assert exit_code == 0
        document = json.loads(out)
        assert document["elapsed_seconds"] > 0
        assert document["tx_per_sec"] > 0
        expected = sum(
            summary["transactions_attempted"] for summary in document["summaries"]
        ) / sum(summary["elapsed_seconds"] for summary in document["summaries"])
        assert document["tx_per_sec"] == pytest.approx(expected, rel=1e-3)

    def test_set_overrides_and_jobs(self, capsys):
        exit_code, out, _ = run_cli(
            capsys,
            ["run", "--scenario", "tiny_test", "--set", "arrival_rate=0.05",
             "--set", "bootstrap_mode=open", "--jobs", "2", "--repeats", "2",
             "--quiet"],
        )
        assert exit_code == 0
        assert "2 repeat(s)" in out

    def test_cache_dir_reports_stats(self, tmp_path, capsys):
        argv = [*self.ARGS, "--cache-dir", str(tmp_path)]
        exit_code, _, err = run_cli(capsys, argv)
        assert exit_code == 0
        assert "0 hit(s), 1 miss(es)" in err
        exit_code, _, err = run_cli(capsys, argv)
        assert exit_code == 0
        assert "1 hit(s), 0 miss(es)" in err


class TestErrorNormalisation:
    """Unknown names exit 2 with a did-you-mean hint, on every subcommand."""

    @pytest.mark.parametrize(
        "argv,hint",
        [
            (["run", "--scheme", "roqc"], "rocq"),
            (["run", "--scenario", "tiny_tset"], "tiny_test"),
            (["run", "--adversary", "sybil_swam"], "sybil_swarm"),
            (["run", "--set", "arival_rate=0.5"], "arrival_rate"),
            (["experiment", "--scheme", "roqc"], "rocq"),
            (["experiment", "--scenario", "tiny_tset"], "tiny_test"),
            (["experiment", "--only", "figure99"], "did you mean"),
            (["trace", "diff", "no-such.jsonl", "also-missing.jsonl"], "unknown trace"),
            (["trace", "replay", "no-such.jsonl"], "unknown trace"),
            (["trace", "fuzz", "--scheme", "roqc"], "rocq"),
        ],
    )
    def test_unknown_names_exit_2_with_hint(self, capsys, argv, hint):
        exit_code, out, err = run_cli(capsys, argv)
        assert exit_code == 2
        assert "error:" in err
        assert hint in err

    def test_malformed_set_flag_exits_2(self, capsys):
        exit_code, _, err = run_cli(capsys, ["run", "--set", "arrival_rate"])
        assert exit_code == 2
        assert "KEY=VALUE" in err

    def test_malformed_adversary_json_exits_2(self, capsys):
        exit_code, _, err = run_cli(capsys, ["run", "--adversary", "{bad json"])
        assert exit_code == 2
        assert "not valid JSON" in err


class TestTraceSubcommand:
    """`trace record/replay/diff/fuzz` against a downscaled tiny_test run."""

    RECORD_ARGS = ["--scenario", "tiny_test", "--seed", "5", "--scale", "0.1"]
    FUZZ_ARGS = ["--seed", "11", "--max-transactions", "400", "--max-peers", "20"]

    @pytest.fixture()
    def recorded_trace(self, tmp_path, capsys):
        path = tmp_path / "base.jsonl"
        exit_code, _, _ = run_cli(
            capsys,
            ["trace", "record", *self.RECORD_ARGS, "--out", str(path), "--quiet"],
        )
        assert exit_code == 0
        return path

    def test_record_reports_path_and_digest(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        exit_code, out, _ = run_cli(
            capsys,
            ["trace", "record", *self.RECORD_ARGS, "--out", str(path), "--quiet"],
        )
        assert exit_code == 0
        assert path.exists()
        assert str(path) in out
        assert "summary digest:" in out

    def test_record_json_mode(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        exit_code, out, _ = run_cli(
            capsys,
            ["trace", "record", *self.RECORD_ARGS,
             "--out", str(path), "--quiet", "--json"],
        )
        assert exit_code == 0
        document = json.loads(out)
        assert document["trace"] == str(path)
        assert document["summary_digest"]
        assert document["fingerprint"]

    def test_unmodified_replay_is_bit_identical(self, recorded_trace, capsys):
        exit_code, out, _ = run_cli(
            capsys, ["trace", "replay", str(recorded_trace), "--quiet"]
        )
        assert exit_code == 0
        assert "bit-identical" in out

    def test_modified_replay_diverges_without_failing(
        self, recorded_trace, tmp_path, capsys
    ):
        replay_to = tmp_path / "beta.jsonl"
        exit_code, out, _ = run_cli(
            capsys,
            ["trace", "replay", str(recorded_trace), "--scheme", "beta",
             "--record-to", str(replay_to), "--quiet", "--json"],
        )
        assert exit_code == 0
        document = json.loads(out)
        assert document["identical"] is False
        assert document["modified"] is True
        assert replay_to.exists()

        exit_code, out, _ = run_cli(
            capsys, ["trace", "diff", str(recorded_trace), str(replay_to)]
        )
        assert exit_code == 1
        assert "first divergence:" in out

    def test_diff_of_identical_traces_exits_0(self, recorded_trace, capsys):
        exit_code, out, _ = run_cli(
            capsys, ["trace", "diff", str(recorded_trace), str(recorded_trace)]
        )
        assert exit_code == 0
        assert "identical" in out

    def test_diff_json_mode(self, recorded_trace, capsys):
        exit_code, out, _ = run_cli(
            capsys,
            ["trace", "diff", str(recorded_trace), str(recorded_trace), "--json"],
        )
        assert exit_code == 0
        document = json.loads(out)
        assert document["identical"] is True
        assert document["divergences"] == []

    def test_missing_trace_exits_2_with_sibling_hint(self, recorded_trace, capsys):
        missing = recorded_trace.parent / "bsae.jsonl"
        exit_code, _, err = run_cli(capsys, ["trace", "replay", str(missing)])
        assert exit_code == 2
        assert "did you mean" in err
        assert str(recorded_trace) in err

    def test_fuzz_clean_batch_exits_0(self, capsys):
        exit_code, out, _ = run_cli(
            capsys, ["trace", "fuzz", "--count", "3", *self.FUZZ_ARGS, "--quiet"]
        )
        assert exit_code == 0
        assert "all invariants hold" in out

    def test_fuzz_json_mode(self, capsys):
        exit_code, out, _ = run_cli(
            capsys,
            ["trace", "fuzz", "--count", "2", *self.FUZZ_ARGS, "--quiet", "--json"],
        )
        assert exit_code == 0
        document = json.loads(out)
        assert document["ok"] is True
        assert len(document["results"]) == 2


class TestDottedSetOverrides:
    """--set routes dotted adversary keys; everything else exits 2 loudly."""

    BASE = ["run", "--scenario", "tiny_test", "--scale", "0.1", "--quiet"]

    def test_adversary_fields_and_knobs_apply(self, capsys):
        exit_code, out, _ = run_cli(
            capsys,
            [*self.BASE, "--adversary", "sybil_swarm",
             "--set", "adversary.count=2",
             "--set", "adversary.interval=75",
             "--set", "adversary.options.waves=2",
             "--json"],
        )
        assert exit_code == 0
        adversary = json.loads(out)["request"]["adversary"]
        assert adversary["count"] == 2
        assert adversary["interval"] == 75.0
        assert adversary["options"]["waves"] == 2.0

    def test_non_adversary_dotted_root_exits_2(self, capsys):
        exit_code, _, err = run_cli(
            capsys, [*self.BASE, "--set", "lending.intro_amount=0.2"]
        )
        assert exit_code == 2
        assert "dotted keys address the adversary spec only" in err

    def test_dotted_adversary_without_adversary_exits_2(self, capsys):
        exit_code, _, err = run_cli(capsys, [*self.BASE, "--set", "adversary.count=2"])
        assert exit_code == 2
        assert "pass --adversary NAME" in err

    def test_unknown_adversary_field_exits_2(self, capsys):
        exit_code, _, err = run_cli(
            capsys,
            [*self.BASE, "--adversary", "sybil_swarm", "--set", "adversary.bogus=1"],
        )
        assert exit_code == 2
        assert "unknown adversary field" in err

    def test_unparsable_value_exits_2(self, capsys):
        exit_code, _, err = run_cli(
            capsys,
            [*self.BASE, "--adversary", "sybil_swarm", "--set", "adversary.count=abc"],
        )
        assert exit_code == 2
        assert "adversary.count" in err

    def test_unknown_knob_exits_2(self, capsys):
        exit_code, _, err = run_cli(
            capsys,
            [*self.BASE, "--adversary", "sybil_swarm",
             "--set", "adversary.options.bogus=1"],
        )
        assert exit_code == 2
        assert "bogus" in err


class TestExperimentSubcommand:
    def test_tiny_run_produces_report_and_store(self, tmp_path, capsys):
        exit_code, out, _ = run_cli(
            capsys,
            ["experiment", "--scale", "0.01", "--repeats", "1",
             "--only", "table1", "--out", str(tmp_path)],
        )
        assert exit_code == 0
        assert "Reproduction report" in out
        assert (tmp_path / "report.md").exists()
        assert (tmp_path / "table1.json").exists()
