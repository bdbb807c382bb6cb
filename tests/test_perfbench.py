"""The repository benchmark (``perfbench/``), checked without timing anything.

``BENCHMARK.json`` declares perfbench as the repository's only benchmark, and
every performance claim is one of its metrics.  These tests hold its
contract with the program:

* the workloads and metrics ``BENCHMARK.json`` declares are the ones the
  harness measures, so a run never fails for a metric it forgot;
* every method a traced run wraps still resolves on the program's classes,
  and tracing stays observational (same digest, wrappers come off);
* the sim workloads still reproduce their pinned digests with no invariant
  violations, so a change that moves results fails here rather than as
  ``correct: false`` in a benchmark run;
* the rules that turn repetitions into metrics and failures (best
  repetition, medians, digest and invariant checks) do what the README says.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.metrics.summary import summary_digest
from repro.sim.engine import Simulation, run_simulation
from repro.workloads.registry import get_scenario

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The harness's modules import each other by bare name; ``run`` also puts
# ``src/`` and ``perfbench/`` on sys.path itself.  Restore the path afterwards
# so no other test module can resolve a name against perfbench/.
_saved_path = list(sys.path)
sys.path.insert(0, str(PERFBENCH))
try:
    import layers
    import run
    import serve
    import simproc
    import tracing
finally:
    sys.path[:] = _saved_path

DECLARED_END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
DECLARED_PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}


def tiny_params():
    return get_scenario("tiny_test", 3).with_overrides(num_transactions=600)


def fake_rep(run_s=1.0, digest=None, violations=(), **fields):
    """A ``spawn_sim`` record as run.py sees it, with client-side times."""
    rep = {
        "transactions": 1000,
        "run_s": run_s,
        "peak_rss_mb": 50.0,
        "setup_s": 0.5,
        "turnaround_s": 2.0,
        "digest": run.PINNED_DIGESTS["growth_stress"] if digest is None else digest,
        "violations": list(violations),
    }
    rep.update(fields)
    return rep


class TestDeclaration:
    def test_declared_workloads_are_the_ones_the_harness_runs(self):
        assert SPEC["command"] == ["python3", "perfbench/run.py"]
        assert SPEC["paths"] == ["perfbench"]
        declared = [workload["name"] for workload in SPEC["workloads"]]
        assert declared == list(run.WORKLOADS)

    def test_every_sim_workload_has_a_pinned_digest(self):
        assert set(simproc.SIM_WORKLOADS) == set(run.PINNED_DIGESTS)
        assert set(run.WORKLOADS) == set(simproc.SIM_WORKLOADS) | {"serve_mixed"}

    @pytest.mark.parametrize(
        "workload, transactions",
        [("growth_stress", 25_000), ("paper_steady", 50_000)],
    )
    def test_sim_workload_horizons_match_the_declaration(self, workload, transactions):
        params = simproc.workload_params(workload, run.DEFAULT_SEED)
        assert params.num_transactions == transactions
        why = next(w["why"] for w in SPEC["workloads"] if w["name"] == workload)
        assert f"{transactions // 1000}k transactions" in why

    def test_sim_runs_report_every_end_to_end_metric(self, monkeypatch):
        monkeypatch.setattr(run, "spawn_sim", lambda workload, seed: fake_rep())
        result = run.measure_sim("growth_stress", run.DEFAULT_SEED, seconds=-1)
        assert set(result["metrics"]) == set(DECLARED_END_TO_END)

    def test_traced_runs_report_every_per_layer_metric(self):
        measured = set(layers.layer_metrics({}, {}))
        measured |= set(serve.SERVE_METRICS) | {"trace.overhead"}
        assert measured == set(DECLARED_PER_LAYER)


class TestPinnedDigests:
    @pytest.mark.parametrize("workload", sorted(simproc.SIM_WORKLOADS))
    def test_sim_workload_reproduces_its_pinned_digest(self, workload, capsys):
        argv = ["--workload", workload, "--seed", str(run.DEFAULT_SEED)]
        assert simproc.main(argv) == 0
        record = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert record["violations"] == []
        assert record["digest"] == run.PINNED_DIGESTS[workload]
        assert record["transactions"] == simproc.workload_params(
            workload, run.DEFAULT_SEED
        ).num_transactions
        assert record["run_s"] > 0
        assert record["first_transaction"] <= record["summary_ready"]
        assert set(record["counts"]) == {
            f"rocq.{name}" for name in layers.STORE_COUNTERS
        }


class TestFailureRules:
    def test_clean_runs_at_the_default_seed_pass(self):
        assert run.sim_errors("growth_stress", run.DEFAULT_SEED, [fake_rep()] * 3) == []

    def test_a_digest_off_the_pin_fails_at_the_default_seed(self):
        reps = [fake_rep(), fake_rep(digest="0" * 64)]
        errors = run.sim_errors("growth_stress", run.DEFAULT_SEED, reps)
        assert len(errors) == 1
        assert errors[0].startswith("run 1: digest")

    def test_other_seeds_compare_against_the_first_repetition(self):
        reps = [fake_rep(digest="a"), fake_rep(digest="a"), fake_rep(digest="b")]
        errors = run.sim_errors("growth_stress", run.DEFAULT_SEED + 1, reps)
        assert errors == ["run 2: digest b != a"]

    def test_a_broken_invariant_fails_the_run(self):
        reps = [fake_rep(violations=["scores_bounded: peer 4 at 1.2"])]
        errors = run.sim_errors("paper_steady", run.DEFAULT_SEED, reps)
        assert len(errors) == 1
        assert "invariants broken" in errors[0]


class TestMeasureSim:
    @staticmethod
    def replay(monkeypatch, reps):
        served = iter(reps)
        monkeypatch.setattr(run, "spawn_sim", lambda workload, seed: next(served))

    def test_timings_are_the_best_repetition_and_the_rest_medians(self, monkeypatch):
        reps = [
            fake_rep(run_s=0.5, peak_rss_mb=60.0, setup_s=0.4, turnaround_s=3.0),
            fake_rep(run_s=0.25, peak_rss_mb=40.0, setup_s=0.9, turnaround_s=1.5),
            fake_rep(run_s=1.0, peak_rss_mb=50.0, setup_s=0.6, turnaround_s=2.5),
        ]
        self.replay(monkeypatch, reps)
        result = run.measure_sim("growth_stress", run.DEFAULT_SEED, seconds=-1)
        assert result["metrics"] == {
            "tx_per_s": 4000.0,
            "peak_rss_mb": 50.0,
            "setup_s": 0.6,
            "run_turnaround_s": 1.5,
        }
        assert (result["attempted"], result["failed"]) == (3, 0)
        assert result["notes"] == ["3 runs of 1000 transactions, 1000 to 4000 tx/s"]

    def test_stops_at_the_minimum_once_time_is_up(self, monkeypatch):
        self.replay(monkeypatch, [fake_rep()] * run.SIM_MAX_REPS)
        result = run.measure_sim("growth_stress", run.DEFAULT_SEED, seconds=-1)
        assert result["attempted"] == run.SIM_MIN_REPS

    def test_never_runs_more_than_the_maximum(self, monkeypatch):
        self.replay(monkeypatch, [fake_rep()] * run.SIM_MAX_REPS)
        result = run.measure_sim("growth_stress", run.DEFAULT_SEED, float("inf"))
        assert result["attempted"] == run.SIM_MAX_REPS

    def test_failed_counts_the_broken_repetitions(self, monkeypatch):
        reps = [fake_rep(), fake_rep(digest="0" * 64), fake_rep(violations=["x"])]
        self.replay(monkeypatch, reps)
        result = run.measure_sim("growth_stress", run.DEFAULT_SEED, seconds=-1)
        assert (result["attempted"], result["failed"]) == (3, 2)
        assert len(result["errors"]) == 2


class TestReport:
    @staticmethod
    def result(metrics, failed=0, errors=()):
        return {
            "metrics": metrics,
            "attempted": 4,
            "failed": failed,
            "errors": list(errors),
            "notes": ["a note"],
        }

    def test_result_line_carries_every_declared_metric_with_its_unit(self, capsys):
        metrics = {name: float(index) for index, name in enumerate(DECLARED_END_TO_END)}
        run.report("growth_stress", 1, False, self.result(metrics))
        out, err = capsys.readouterr()
        document = json.loads(out.splitlines()[-1])
        assert (document["correct"], document["attempted"], document["failed"]) == (
            True,
            4,
            0,
        )
        assert document["metrics"] == {
            name: {"value": metrics[name], "unit": metric["unit"]}
            for name, metric in DECLARED_END_TO_END.items()
        }
        assert "error_rate" in err and "note: a note" in err

    def test_a_failed_operation_makes_the_result_incorrect(self, capsys):
        metrics = dict.fromkeys(DECLARED_PER_LAYER, 0.0)
        run.report("paper_steady", 1, True, self.result(metrics, 1, ["run 0: bad"]))
        out, err = capsys.readouterr()
        document = json.loads(out.splitlines()[-1])
        assert document["correct"] is False
        assert set(document["metrics"]) == set(DECLARED_PER_LAYER)
        assert "FAILED: run 0: bad" in err

    def test_a_metric_left_unmeasured_is_an_error(self, capsys):
        metrics = dict.fromkeys(DECLARED_END_TO_END, 1.0)
        del metrics["setup_s"]
        with pytest.raises(RuntimeError, match="setup_s"):
            run.report("growth_stress", 1, False, self.result(metrics))
        assert capsys.readouterr().out == ""


class TestLayerMetrics:
    def test_spans_never_entered_report_zero(self):
        metrics = layers.layer_metrics({}, {})
        assert set(metrics.values()) == {0}
        assert metrics["rocq.sample_miss_ratio"] == 0.0
        assert metrics["overlay.resolves_per_change"] == 0.0
        assert metrics["trace.coverage"] == 0.0

    def test_ratios_and_coverage(self):
        spans = {
            "sim.run": {"calls": 1, "total_s": 2.0, "self_s": 0.5},
            "overlay.ring": {"calls": 4, "total_s": 0.1, "self_s": 0.1},
            "overlay.assignment": {"calls": 10, "total_s": 0.2, "self_s": 0.2},
        }
        counts = {
            "subjects_gathered": 200,
            "sample_misses": 50,
            "rocq.reports_delivered": 7,
        }
        metrics = layers.layer_metrics(spans, counts)
        assert metrics["overlay.resolves_per_change"] == 2.5
        assert metrics["rocq.sample_miss_ratio"] == 0.25
        assert metrics["trace.coverage"] == 0.75
        assert metrics["rocq.reports_delivered"] == 7
        assert metrics["sim.run.self_s"] == 0.5


@pytest.fixture(scope="module")
def probe():
    return Simulation(tiny_params())


class TestTracedLayersResolve:
    @pytest.mark.parametrize(
        "span, reach, methods",
        layers.SIM_SPANS,
        ids=[f"{span}:{'/'.join(methods)}" for span, _, methods in layers.SIM_SPANS],
    )
    def test_sim_span_methods_exist(self, probe, span, reach, methods):
        cls = type(reach(probe))
        for method in methods:
            assert callable(getattr(cls, method, None)), f"{cls.__name__}.{method}"

    @pytest.mark.parametrize("driver", ["memory", "sqlite"])
    def test_serve_spans_install_and_come_off(self, tmp_path, driver):
        url = "memory://" if driver == "memory" else str(tmp_path / "probe.db")
        tracer = tracing.SpanTracer()
        try:
            layers.install_serve_spans(tracer, url)
            assert tracer.installed == len(layers.SERVE_SPANS)
        finally:
            tracer.uninstall()
        assert tracer.installed == 0

    def test_tracing_is_observational(self):
        params = tiny_params()
        untraced = summary_digest(run_simulation(params))
        tracer = tracing.SpanTracer()
        layers.install_sim_spans(tracer, params)
        try:
            traced = summary_digest(run_simulation(params))
        finally:
            tracer.uninstall()
        assert traced == untraced
        assert tracer.spans()["sim.run"]["calls"] == 1
        assert not hasattr(Simulation.run, "__wrapped__")

    def test_selftest_passes(self):
        process = subprocess.run(
            [sys.executable, str(PERFBENCH / "selftest.py")],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert process.returncode == 0, process.stderr[-3000:]


class TestSpanTracer:
    def test_wrapping_a_missing_method_raises(self):
        class Plain:
            pass

        with pytest.raises(AttributeError):
            tracing.SpanTracer().wrap(Plain, "absent", "x")

    def test_wrapping_a_non_callable_raises(self):
        class Plain:
            value = 3

        with pytest.raises(TypeError, match="not callable"):
            tracing.SpanTracer().wrap(Plain, "value", "x")

    def test_an_inherited_method_is_restored_by_deleting_the_wrapper(self):
        class Base:
            def method(self):
                return "base"

        class Child(Base):
            pass

        tracer = tracing.SpanTracer()
        tracer.wrap(Child, "method", "x")
        assert "method" in vars(Child)
        assert Child().method() == "base"
        tracer.uninstall()
        assert "method" not in vars(Child)
        assert Child.method is Base.method

    def test_a_raising_call_still_closes_its_span(self):
        now = [0]

        class Failing:
            def method(self):
                now[0] += 4
                raise ValueError("boom")

        tracer = tracing.SpanTracer(clock=lambda: now[0])
        tracer.wrap(Failing, "method", "x")
        with pytest.raises(ValueError):
            Failing().method()
        assert tracer.spans() == {"x": {"calls": 1, "total_s": 4e-9, "self_s": 4e-9}}
        state = tracer.state()
        assert state.stack == [] and state.depth == {"x": 0}
        tracer.uninstall()

    def test_hooks_and_spans_are_summed_over_threads(self):
        class Worker:
            def work(self, amount):
                return amount

        def count(state, args):
            state.counts["amount"] = state.counts.get("amount", 0) + args[1]

        tracer = tracing.SpanTracer()
        tracer.wrap(Worker, "work", "w", after=count)
        threads = [
            threading.Thread(target=Worker().work, args=(amount,)) for amount in (2, 5)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        Worker().work(10)
        tracer.uninstall()
        assert tracer.spans()["w"]["calls"] == 3
        assert tracer.counts() == {"amount": 17}


class TestPercentile:
    @pytest.mark.parametrize("q", [0, 100])
    def test_percentile_outside_the_open_interval_is_refused(self, q):
        with pytest.raises(ValueError, match="must lie in"):
            tracing.percentile(range(10_000), q)

    def test_nearest_rank(self):
        assert tracing.percentile(range(1, 101), 50) == 50
        assert tracing.percentile(range(1, 101), 90) == 90
        assert tracing.percentile(reversed(range(1, 101)), 90) == 90

    def test_p50_is_the_low_median(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0] * 3
        assert tracing.percentile(values, 50) == statistics.median_low(values)
