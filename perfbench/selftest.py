"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that every class and method the traced runs wrap still resolves,
that the wrappers come off after a traced run, the self-time arithmetic on a
synthetic nested call, and that the percentile helper refuses thin tails.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from layers import SIM_SPANS, install_serve_spans, install_sim_spans  # noqa: E402
from tracing import SpanTracer, percentile  # noqa: E402


def tiny_params():
    from repro.workloads.registry import get_scenario

    return get_scenario("tiny_test", 3).with_overrides(num_transactions=600)


class WrappedMethodsResolve(unittest.TestCase):
    def test_every_span_installs_and_comes_off(self):
        tracer = SpanTracer()
        with tempfile.TemporaryDirectory() as work:
            try:
                install_sim_spans(tracer, tiny_params())
                install_serve_spans(tracer, str(Path(work) / "probe.db"))
                sim_methods = sum(len(methods) for _, _, methods in SIM_SPANS)
                self.assertEqual(tracer.installed, sim_methods + 5)
            finally:
                tracer.uninstall()
        self.assertEqual(tracer.installed, 0)


class WrappersComeOff(unittest.TestCase):
    def test_untraced_run_after_a_traced_run(self):
        from repro.metrics.summary import summary_digest
        from repro.sim.engine import run_simulation

        params = tiny_params()
        tracer = SpanTracer()
        install_sim_spans(tracer, params)
        try:
            traced = summary_digest(run_simulation(params))
        finally:
            tracer.uninstall()
        recorded = tracer.spans()
        self.assertEqual(recorded["sim.run"]["calls"], 1)
        untraced = summary_digest(run_simulation(params))
        self.assertEqual(tracer.spans(), recorded)
        self.assertEqual(untraced, traced)


class SelfTime(unittest.TestCase):
    def test_nested_calls(self):
        now = [0]

        class Synthetic:
            def outer(self):
                now[0] += 5
                self.inner()
                now[0] += 7
                self.again()

            def again(self):
                now[0] += 2
                self.inner()

            def inner(self):
                now[0] += 3

        tracer = SpanTracer(clock=lambda: now[0])
        tracer.wrap(Synthetic, "outer", "a")
        tracer.wrap(Synthetic, "again", "a")
        tracer.wrap(Synthetic, "inner", "b")
        Synthetic().outer()
        spans = tracer.spans()
        # outer lasts 5 + 3 + 7 + (2 + 3) = 20; "a" re-entered through
        # again() adds self time but no second total.
        self.assertEqual(spans["a"], {"calls": 2, "total_s": 20e-9, "self_s": 14e-9})
        self.assertEqual(spans["b"], {"calls": 2, "total_s": 6e-9, "self_s": 6e-9})
        tracer.uninstall()
        self.assertNotIn("__wrapped__", vars(Synthetic.outer))


class Percentile(unittest.TestCase):
    def test_refuses_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(ValueError):
            percentile(range(999), 99)
        self.assertEqual(percentile(range(1000), 99), 989)
        with self.assertRaises(ValueError):
            percentile(range(19), 50)
        self.assertEqual(percentile(range(20), 50), 9)


if __name__ == "__main__":
    unittest.main()
