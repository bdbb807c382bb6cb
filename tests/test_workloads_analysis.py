"""Tests for workloads (scenarios, sweeps) and the analysis helpers."""

from __future__ import annotations

import math

import pytest

from repro.analysis.comparison import ShapeCheck, evaluate_checks, monotonic, roughly_flat
from repro.analysis.plotting import ascii_plot, sparkline
from repro.analysis.storage import ResultStore
from repro.analysis.tables import format_markdown_table, format_table
from repro.config import BootstrapMode, SimulationParameters, Topology
from repro.metrics.timeseries import TimeSeries
from repro.workloads.scenarios import (
    fixed_credit_baseline,
    high_arrival_stress,
    laptop_scale,
    open_admission_baseline,
    paper_default,
    random_topology_variant,
    tiny_test,
)
from repro.workloads.sweep import (
    ParameterSweep,
    SweepPoint,
    aggregate_mean,
    average_series,
)


class TestScenarios:
    def test_paper_default_matches_table1(self):
        assert paper_default() == SimulationParameters(seed=1)

    def test_laptop_scale_shrinks_horizon(self):
        params = laptop_scale(0.1)
        assert params.num_transactions == 50_000
        assert params.arrival_rate == pytest.approx(0.01)

    def test_tiny_test_is_actually_tiny(self):
        params = tiny_test()
        assert params.num_transactions <= 5_000
        assert params.num_initial_peers <= 100

    def test_variants_change_only_what_they_claim(self):
        base = paper_default()
        assert random_topology_variant(base).topology == Topology.RANDOM
        assert open_admission_baseline(base).bootstrap_mode == BootstrapMode.OPEN
        fixed = fixed_credit_baseline(base, credit=0.4)
        assert fixed.bootstrap_mode == BootstrapMode.FIXED_CREDIT
        assert fixed.fixed_initial_credit == pytest.approx(0.4)
        assert high_arrival_stress(0.2, base).arrival_rate == pytest.approx(0.2)


class TestSweepHelpers:
    def test_aggregate_mean(self):
        mean, std = aggregate_mean([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(1.0)
        mean, std = aggregate_mean([5.0])
        assert std == 0.0
        mean, std = aggregate_mean([])
        assert math.isnan(mean)

    @pytest.mark.parametrize(
        "values",
        [[math.nan, math.nan], [math.nan, 1.0], [math.inf, 1.0]],
        ids=["all-nan", "one-nan", "inf"],
    )
    def test_non_finite_repeats_have_nan_spread(self, values):
        # A detection cell with nothing detected averages NaN repeats.
        mean, std = aggregate_mean(values)
        assert not math.isfinite(mean)
        assert math.isnan(std)

    def test_average_series_elementwise(self):
        a = TimeSeries()
        b = TimeSeries()
        for t in range(3):
            a.append(float(t), 1.0)
            b.append(float(t), 3.0)
        merged = average_series([a, b], name="avg")
        assert merged.values == [2.0, 2.0, 2.0]
        assert merged.name == "avg"

    def test_average_series_handles_nan_and_length_mismatch(self):
        a = TimeSeries()
        a.append(0.0, float("nan"))
        a.append(1.0, 2.0)
        b = TimeSeries()
        b.append(0.0, 4.0)
        merged = average_series([a, b])
        assert len(merged) == 1
        assert merged.values[0] == pytest.approx(4.0)

    def test_average_series_empty(self):
        assert len(average_series([])) == 0


class TestParameterSweep:
    def test_sweep_runs_each_point_with_repeats(self):
        base = tiny_test(seed=3).with_overrides(num_transactions=600)
        sweep = ParameterSweep(
            name="unit-sweep",
            base=base,
            points=[
                SweepPoint(label="low", x=0.0, overrides={"arrival_rate": 0.0}),
                SweepPoint(label="high", x=1.0, overrides={"arrival_rate": 0.05}),
            ],
            repeats=2,
        )
        messages = []
        result = sweep.run(progress=messages.append)
        assert set(result.summaries) == {"low", "high"}
        assert len(result.summaries_at("low")) == 2
        assert len(messages) == 4
        # No arrivals at rate 0: community stays at the founders.
        mean, _ = result.mean_metric("low", lambda s: float(s.final_cooperative))
        assert mean == base.num_initial_peers

    def test_sweep_series_ordering_matches_points(self):
        base = tiny_test(seed=5).with_overrides(num_transactions=400)
        sweep = ParameterSweep(
            name="ordered",
            base=base,
            points=[
                SweepPoint(label=f"p{i}", x=float(i), overrides={}) for i in range(3)
            ],
            repeats=1,
        )
        result = sweep.run()
        xs = [x for x, _, _ in result.series(lambda s: float(s.final_cooperative))]
        assert xs == [0.0, 1.0, 2.0]

    def test_params_for_applies_scale_and_overrides(self):
        base = paper_default()
        sweep = ParameterSweep(
            name="scaled",
            base=base,
            points=[SweepPoint(label="a", x=0.0, overrides={"arrival_rate": 0.05})],
            repeats=1,
            scale=0.01,
        )
        params = sweep.params_for(sweep.points[0])
        assert params.arrival_rate == pytest.approx(0.05)
        assert params.num_transactions == 5_000


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["alpha", 1.5], ["b", 20]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4

    def test_markdown_table(self):
        text = format_markdown_table(["a", "b"], [[1, 2]])
        assert text.splitlines()[0] == "| a | b |"
        assert "| 1 | 2 |" in text

    def test_nan_rendered_as_na(self):
        text = format_table(["x"], [[float("nan")]])
        assert "n/a" in text


class TestPlotting:
    def test_sparkline_shape(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] != line[-1]

    def test_sparkline_handles_nan_and_constant(self):
        assert sparkline([float("nan"), 1.0, 1.0])[0] == " "
        constant = sparkline([2.0, 2.0])
        assert len(set(constant)) == 1

    def test_ascii_plot_contains_legend_and_bounds(self):
        plot = ascii_plot(
            {"up": [(0, 0), (1, 1)], "down": [(0, 1), (1, 0)]},
            width=20,
            height=5,
            x_label="x",
            y_label="y",
        )
        assert "legend:" in plot
        assert "up" in plot and "down" in plot
        assert "[0 .. 1]" in plot

    def test_ascii_plot_empty(self):
        assert "(no data)" in ascii_plot({}, title="t")


class TestStorage:
    def test_json_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save_json("figure1", {"a": [1, 2, 3]})
        assert path.exists()
        assert store.load_json("figure1") == {"a": [1, 2, 3]}
        assert store.exists("figure1")

    def test_names_are_sanitised(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save_json("weird name/../x", {"ok": True})
        assert path.parent == store.root


class TestComparison:
    def test_monotonic_checks(self):
        ok, _ = monotonic([(0, 1.0), (1, 2.0), (2, 3.0)], increasing=True)
        assert ok
        ok, _ = monotonic([(0, 3.0), (1, 1.0)], increasing=True)
        assert not ok
        ok, _ = monotonic([(0, 3.0), (1, 2.9)], increasing=True, tolerance=0.5)
        assert ok

    def test_roughly_flat(self):
        ok, _ = roughly_flat([(0, 1.0), (1, 1.05), (2, 0.95)], relative_band=0.1)
        assert ok
        ok, _ = roughly_flat([(0, 1.0), (1, 2.0)], relative_band=0.1)
        assert not ok

    def test_shape_check_evaluation_and_error_capture(self):
        good = ShapeCheck(name="always", predicate=lambda result: (True, "fine"))
        bad = ShapeCheck(name="boom", predicate=lambda result: 1 / 0)
        results = evaluate_checks([good, bad], result=None)
        assert results[0].passed
        assert not results[1].passed
        assert "error" in results[1].detail
        assert "PASS" in str(results[0])
