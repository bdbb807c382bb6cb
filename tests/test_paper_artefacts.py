"""The paper's eight evaluation artefacts, regenerated and judged check by check.

Table 1, the §4.1 success rate and Figures 1–6 run once per module at bench
scale: 4% of the paper's 500k-transaction horizon (20,000 transactions), one
repeat, seed 1, on two worker processes.  Results are the same for any job
count (``tests/test_parallel.py::TestBackendDeterminism``), and Figures 4 and
5 share one sweep.

``VERDICTS`` pins the outcome of every shape check the eight experiments
return, so a change that flips one verdict fails exactly that check's test,
and a check that is added, dropped or renamed fails
``test_every_check_is_pinned``.  Other scales and repeats run through
``python -m repro experiment --scale S --repeats R --seed N``.
"""

from __future__ import annotations

import pytest

from repro.api import SimulationService

SCALE = 0.04
REPEATS = 1
SEED = 1

PASS = True
FAIL = False

#: (experiment id, shape-check name) -> expected outcome at bench scale.
VERDICTS: dict[tuple[str, str], bool] = {
    ("table1", "defaults match Table 1"): PASS,
    ("table1", "minIntroRep exceeds introAmt"): PASS,
    ("figure1", "uncooperative count grows with cooperative count"): PASS,
    ("figure1", "slope well below the admission-free 1:3 ratio"): PASS,
    ("figure1", "growth is topology independent"): PASS,
    ("success", "success rate is high in both configurations"): PASS,
    (
        "success",
        "introduction requirement does not change the success rate much",
    ): PASS,
    (
        "figure2",
        "cooperative reputation roughly constant for low/medium rates",
    ): PASS,
    # A reproduction gap, not a test bug: both high-rate curves are still
    # sinking at the end of the run and bottom out in its last quarter (the
    # 94th of 101 samples).  See README, *Experiments*.
    ("figure2", "highest rates dip then recover to a steady state"): FAIL,
    ("figure2", "uncooperative reputation stays very low"): PASS,
    ("figure3", "admitted uncooperative peers increase with naive fraction"): PASS,
    ("figure3", "with only selective introducers ~errSel of freeriders get in"): PASS,
    ("figure3", "with only naive introducers admission stays bounded"): PASS,
    ("figure3", "cooperative count does not grow with the naive fraction"): PASS,
    ("figure4", "refusals due to introducer reputation rise with the stake"): PASS,
    ("figure4", "refusals of uncooperative applicants stay flat"): PASS,
    ("figure4", "total admissions decline once the stake is large"): PASS,
    ("figure5", "relative proportions barely change with the stake"): PASS,
    ("figure5", "proportions are complementary"): PASS,
    ("figure6", "cooperative count decreases towards the founder floor"): PASS,
    ("figure6", "uncooperative count saturates instead of growing linearly"): PASS,
    ("figure6", "refusals of uncooperative applicants grow with their share"): PASS,
}

#: The paper's artefacts, in the order the paper presents them.
PAPER_EXPERIMENTS = list(dict.fromkeys(experiment for experiment, _ in VERDICTS))


@pytest.fixture(scope="module")
def results():
    with SimulationService(jobs=2) as service:
        return service.run_experiments(
            scale=SCALE, repeats=REPEATS, seed=SEED, only=PAPER_EXPERIMENTS
        )


def test_every_check_is_pinned(results):
    returned = {
        (experiment_id, check.name)
        for experiment_id, result in results.items()
        for check in result.checks
    }
    assert returned == set(VERDICTS)


@pytest.mark.parametrize(
    ("experiment_id", "check_name"),
    list(VERDICTS),
    ids=[f"{experiment}-{name.replace(' ', '_')}" for experiment, name in VERDICTS],
)
def test_verdict(results, experiment_id, check_name):
    (check,) = [c for c in results[experiment_id].checks if c.name == check_name]
    expected = VERDICTS[experiment_id, check_name]
    assert check.passed is expected, str(check)


def test_table1_defaults(results):
    scalars = results["table1"].scalars
    assert scalars["arrival_rate (paper)"] == scalars["arrival_rate (ours)"]


def test_figure1_growth(results):
    series = results["figure1"].series
    assert set(series) == {"Random Network", "Scale-free Network"}
    for label, points in series.items():
        assert len(points) >= 2, f"series {label} has too few samples"


def test_success_rate_with_and_without_introductions(results):
    rates = [
        value
        for name, value in results["success"].scalars.items()
        if name.startswith("success rate —")
    ]
    assert len(rates) == 2
    assert all(0.0 <= rate <= 1.0 for rate in rates)


def test_figure2_reputation_over_time(results):
    series = results["figure2"].series
    assert len(series) == 8
    for label, points in series.items():
        assert label.startswith("Arrival Rate")
        for _, value in points:
            if value == value:  # skip NaN samples
                assert 0.0 <= value <= 1.0


def test_figure3_naive_proportion(results):
    assert set(results["figure3"].series) == {
        "Cooperative Peers",
        "Uncooperative Peers",
    }


def test_figure4_lent_amount(results):
    series = results["figure4"].series
    assert set(series) == {
        "Cooperative Peers",
        "Uncooperative Peers",
        "Entry Refused due to Introducer Reputation",
        "Entry Refused to Uncooperative Peer",
    }
    xs = [x for x, _ in series["Cooperative Peers"]]
    assert xs[0] == 0.05 and xs[-1] == 0.45


def test_figure5_lent_proportion(results):
    for points in results["figure5"].series.values():
        for _, proportion in points:
            assert 0.0 <= proportion <= 1.0


def test_figure6_freerider_fraction(results):
    coop = dict(results["figure6"].series["Cooperative Peers"])
    # With only freeriders arriving, the cooperative community cannot exceed
    # its size when only cooperative peers arrive.
    assert coop[100.0] <= coop[0.0]
