"""Tests for the experiment harness (smoke runs at minuscule scale)."""

from __future__ import annotations

import pytest

from repro.analysis.storage import ResultStore
from repro.api import SimulationService
from repro.config import SimulationParameters
from repro.experiments import (
    EXPERIMENTS,
    DetectionEval,
    Figure1Growth,
    Figure2ReputationOverTime,
    Figure3NaiveProportion,
    Figure4LentAmount,
    Figure5LentProportion,
    Figure6FreeriderFraction,
    RobustnessMatrix,
    SchemeComparison,
    SuccessRateExperiment,
    Table1Parameters,
    make_experiment,
    render_report,
)
from repro.experiments.base import ExperimentResult


#: A tiny base configuration shared by the smoke runs: small community, short
#: horizon, short waiting period so admissions actually happen.
SMOKE_BASE = SimulationParameters(
    num_initial_peers=80,
    num_transactions=4_000,
    arrival_rate=0.02,
    waiting_period=200.0,
    sample_interval=500.0,
    audit_transactions=5,
    seed=17,
)


def smoke(experiment_cls, **kwargs):
    """Instantiate an experiment at smoke scale (scale=1 of the tiny base)."""
    return experiment_cls(
        scale=1.0, repeats=1, seed=17, base_params=SMOKE_BASE, **kwargs
    )


class TestRegistry:
    def test_registry_covers_every_paper_artefact(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "figure1",
            "success",
            "figure2",
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "scheme_comparison",
            "robustness_matrix",
            "detection_eval",
        }

    def test_make_experiment_unknown_id(self):
        with pytest.raises(KeyError):
            make_experiment("figure99")

    def test_make_experiment_builds_registered_class(self):
        experiment = make_experiment("figure1", scale=0.5, repeats=2, seed=9)
        assert isinstance(experiment, Figure1Growth)
        assert experiment.scale == 0.5
        assert experiment.repeats == 2


class TestTable1:
    def test_defaults_pass_checks(self):
        experiment = Table1Parameters(scale=1.0, repeats=1)
        result = experiment.run_and_validate()
        assert result.all_checks_passed
        assert "num_initial_peers (paper)" in result.scalars


class TestFigure1:
    def test_produces_two_series_and_scalars(self):
        result = smoke(Figure1Growth).run_and_validate()
        assert set(result.series) == {"Random Network", "Scale-free Network"}
        for points in result.series.values():
            assert len(points) >= 2
        assert any("final cooperative" in key for key in result.scalars)

    def test_growth_check_passes_at_smoke_scale(self):
        result = smoke(Figure1Growth).run_and_validate()
        by_name = {check.name: check for check in result.checks}
        assert by_name["uncooperative count grows with cooperative count"].passed
        assert by_name["slope well below the admission-free 1:3 ratio"].passed


class TestSuccessRate:
    def test_reports_both_configurations(self):
        result = smoke(SuccessRateExperiment).run_and_validate()
        lending_keys = [k for k in result.scalars if "lending" in k and "std" not in k]
        open_keys = [k for k in result.scalars if "open" in k and "std" not in k]
        assert lending_keys and open_keys
        for check in result.checks:
            assert check.passed, check


class TestFigure2:
    def test_series_per_arrival_rate(self):
        experiment = smoke(Figure2ReputationOverTime, arrival_rates=(0.005, 0.05))
        result = experiment.run_and_validate()
        assert set(result.series) == {"Arrival Rate 0.005", "Arrival Rate 0.05"}
        for points in result.series.values():
            assert all(0.0 <= y <= 1.0 for _, y in points if y == y)

    def test_uncooperative_reputation_scalar_recorded(self):
        experiment = smoke(Figure2ReputationOverTime, arrival_rates=(0.01,))
        result = experiment.run()
        assert "final uncooperative reputation (rate 0.01)" in result.scalars


class TestFigure3:
    def test_series_cover_requested_fractions(self):
        experiment = smoke(Figure3NaiveProportion, naive_fractions=(0.0, 1.0))
        result = experiment.run_and_validate()
        xs = [x for x, _ in result.series["Cooperative Peers"]]
        assert xs == [0.0, 1.0]
        assert "Uncooperative Peers" in result.series


class TestFigures4And5:
    def test_figure4_series_and_refusals(self):
        experiment = smoke(Figure4LentAmount, amounts=(0.05, 0.45))
        result = experiment.run_and_validate()
        assert set(result.series) == {
            "Cooperative Peers",
            "Uncooperative Peers",
            "Entry Refused due to Introducer Reputation",
            "Entry Refused to Uncooperative Peer",
        }
        assert experiment.sweep_result is not None

    def test_figure5_reuses_figure4_sweep(self):
        figure4 = smoke(Figure4LentAmount, amounts=(0.05, 0.45))
        figure4.run()
        figure5 = smoke(
            Figure5LentProportion, amounts=(0.05, 0.45),
            shared_sweep=figure4.sweep_result,
        )
        result = figure5.run_and_validate()
        assert any("reused" in note for note in result.notes)
        for points in result.series.values():
            for _, proportion in points:
                assert 0.0 <= proportion <= 1.0
        by_name = {check.name: check for check in result.checks}
        assert by_name["proportions are complementary"].passed


class TestFigure6:
    def test_series_and_extreme_points(self):
        experiment = smoke(Figure6FreeriderFraction, fractions=(0.0, 1.0))
        result = experiment.run_and_validate()
        coop = dict(result.series["Cooperative Peers"])
        assert coop[0.0] >= coop[100.0]
        assert "uncooperative arrivals at 100%" in result.scalars


class TestSchemeComparison:
    def test_one_row_per_scheme_with_labels(self):
        experiment = smoke(SchemeComparison, schemes=("rocq", "complaints", "beta"))
        result = experiment.run_and_validate()
        assert len(result.series["Cooperative admission rate"]) == 3
        assert set(result.x_ticks.values()) == {"rocq", "complaints", "beta"}
        # The labelled table is what feeds the analysis layer.
        first_column = [row[0] for row in result.table_rows()]
        assert first_column == ["rocq", "complaints", "beta"]
        assert result.all_checks_passed

    def test_lending_vs_most_permissive_baseline(self):
        experiment = smoke(SchemeComparison, schemes=("rocq", "complaints"))
        result = experiment.run()
        uncoop = dict(result.series["Uncooperative admission rate"])
        # Complaints-based trust admits every stranger under open admission;
        # lending makes freeriders earn an introduction.
        assert uncoop[1.0] == pytest.approx(1.0)
        assert uncoop[0.0] < uncoop[1.0]

    def test_horizon_is_capped_at_paper_scale(self):
        from repro.experiments.scheme_comparison import MAX_COMPARISON_TRANSACTIONS

        experiment = SchemeComparison(scale=1.0, repeats=1, seed=1)
        assert (
            experiment._effective_scale()
            * experiment.base_params.num_transactions
            == pytest.approx(MAX_COMPARISON_TRANSACTIONS)
        )


class TestRobustnessMatrix:
    def test_one_cell_per_scheme_attack_pair(self):
        experiment = smoke(
            RobustnessMatrix,
            schemes=("rocq", "tit_for_tat"),
            attacks=("whitewash_waves", "churn_storm"),
        )
        result = experiment.run_and_validate()
        # 2 metrics per attack, each with one point per scheme.
        assert len(result.series) == 4
        for points in result.series.values():
            assert len(points) == 2
        assert set(result.x_ticks.values()) == {"rocq", "tit_for_tat"}
        assert result.scalars["cells"] == 4.0
        assert result.all_checks_passed

    def test_lending_resists_whitewashing_that_a_baseline_concedes(self):
        """The acceptance-criterion cell: rocq low, a trusting baseline high."""
        experiment = smoke(
            RobustnessMatrix,
            schemes=("rocq", "tit_for_tat"),
            attacks=("whitewash_waves",),
        )
        result = experiment.run()
        gain = dict(result.series["whitewash_waves: attacker gain"])
        assert gain[0.0] + 0.1 < gain[1.0]  # rocq vs tit_for_tat

    def test_every_cell_carries_its_adversary_spec(self):
        experiment = smoke(
            RobustnessMatrix, schemes=("rocq",), attacks=("sybil_swarm",)
        )
        horizon = experiment.base_params.num_transactions
        points = experiment._points(horizon)
        assert len(points) == 1
        spec = points[0].overrides["adversary"]
        assert spec.name == "sybil_swarm"
        assert spec.interval == pytest.approx(horizon / 8.0)

    def test_horizon_is_capped_at_comparison_scale(self):
        from repro.experiments.scheme_comparison import MAX_COMPARISON_TRANSACTIONS

        experiment = RobustnessMatrix(scale=1.0, repeats=1, seed=1)
        assert (
            experiment._effective_scale()
            * experiment.base_params.num_transactions
            == pytest.approx(MAX_COMPARISON_TRANSACTIONS)
        )


class TestDetectionEval:
    def test_one_cell_per_scheme_attack_pair(self):
        experiment = smoke(
            DetectionEval,
            schemes=("rocq", "tit_for_tat"),
            attacks=("whitewash_waves",),
        )
        result = experiment.run_and_validate()
        # 6 detection metrics per attack, each with one point per scheme.
        assert len(result.series) == 6
        for points in result.series.values():
            assert len(points) == 2
        assert set(result.x_ticks.values()) == {"rocq", "tit_for_tat"}
        assert result.scalars["cells"] == 2.0
        assert result.scalars["adversary identities per run"] > 0
        assert result.all_checks_passed

    def test_grids_are_canonically_sorted(self):
        experiment = smoke(
            DetectionEval,
            schemes=("tit_for_tat", "rocq"),
            attacks=("whitewash_waves", "churn_storm"),
        )
        assert experiment.schemes == ("rocq", "tit_for_tat")
        assert experiment.attacks == ("churn_storm", "whitewash_waves")
        # The robustness matrix sorts the same way, so the two grids' cells
        # line up in the consolidated report.
        matrix = smoke(
            RobustnessMatrix,
            schemes=("tit_for_tat", "rocq"),
            attacks=("whitewash_waves", "churn_storm"),
        )
        assert matrix.schemes == experiment.schemes
        assert matrix.attacks == experiment.attacks

    def test_lending_separates_whitewashers_at_the_admission_threshold(self):
        """The acceptance-criterion cell: plain AUC can rank perfectly with
        an unusable margin (tit_for_tat holds whitewashers at 0.89), so the
        comparison runs at the admission threshold."""
        experiment = smoke(
            DetectionEval,
            schemes=("rocq", "tit_for_tat"),
            attacks=("whitewash_waves",),
        )
        result = experiment.run()
        admission = dict(result.series["whitewash_waves: admission auc"])
        assert admission[0.0] > admission[1.0] + 0.1  # rocq vs tit_for_tat

    def test_every_cell_carries_its_adversary_spec(self):
        experiment = smoke(
            DetectionEval, schemes=("rocq",), attacks=("sybil_swarm",)
        )
        horizon = experiment.base_params.num_transactions
        points = experiment._points(horizon)
        assert len(points) == 1
        assert points[0].overrides["adversary"].name == "sybil_swarm"

    def test_horizon_is_capped_at_comparison_scale(self):
        from repro.experiments.scheme_comparison import MAX_COMPARISON_TRANSACTIONS

        experiment = DetectionEval(scale=1.0, repeats=1, seed=1)
        assert (
            experiment._effective_scale()
            * experiment.base_params.num_transactions
            == pytest.approx(MAX_COMPARISON_TRANSACTIONS)
        )


class TestRunnerAndReport:
    def test_run_all_subset_with_store(self, tmp_path):
        store = ResultStore(tmp_path)
        with SimulationService() as service:
            results = service.run_experiments(
                scale=1.0,
                repeats=1,
                seed=17,
                only=["table1", "figure1"],
                store=store,
                base_params=SMOKE_BASE,
            )
        assert set(results) == {"table1", "figure1"}
        assert store.exists("figure1")
        for result in results.values():
            assert isinstance(result, ExperimentResult)
            assert result.checks  # validation ran

    def test_render_report_mentions_every_experiment(self):
        with SimulationService() as service:
            results = service.run_experiments(
                scale=1.0, repeats=1, seed=17, only=["table1"], base_params=SMOKE_BASE
            )
        report = render_report(results)
        assert "# Reproduction report" in report
        assert "table1" in report
        assert "PASS" in report or "FAIL" in report

    def test_result_render_text_and_to_dict(self):
        result = smoke(Figure1Growth).run_and_validate()
        text = result.render_text()
        assert "figure1" in text
        data = result.to_dict()
        assert data["experiment_id"] == "figure1"
        assert set(data["series"]) == set(result.series)
