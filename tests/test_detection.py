"""Tests for the detection-quality subsystem (labels, ranking, calibration).

The metric tests pin golden values computed by hand, then check the two
invariants the ranking metrics promise: AUC is invariant under strictly
monotone rescaling of the scores, and degrades to ~0.5 on label-shuffled
inputs.  The integration tests pin the ground-truth labelling contract on
the engine: adversary runs carry ``adversary_identities`` and a
``detection`` payload, and neither perturbs the digest document.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.config import AdversarySpec, SimulationParameters
from repro.detection import (
    LabelSet,
    auc,
    average_precision,
    brier_score,
    expected_calibration_error,
    operating_point_auc,
    precision_at_k,
    precision_recall_f1,
    reliability_diagram,
    roc_curve,
    threshold_sweep,
    time_to_detection,
)
from repro.metrics.summary import RunSummary, summary_digest
from repro.sim.engine import run_simulation

#: A fast operating point with enough churn for adversaries to act.
SMALL = dict(
    num_initial_peers=20,
    num_transactions=600,
    arrival_rate=0.05,
    waiting_period=50.0,
    sample_interval=100.0,
    num_score_managers=3,
)


def small_params(**overrides) -> SimulationParameters:
    return SimulationParameters(**{**SMALL, **overrides})


def adversary_params(attack: str = "whitewash_waves", **overrides):
    return small_params(
        adversary=AdversarySpec(name=attack, count=3, interval=150.0),
        **overrides,
    )


# --------------------------------------------------------------------- #
# Ranking: golden values                                                  #
# --------------------------------------------------------------------- #
class TestRocGoldenValues:
    def test_perfect_separation(self):
        curve = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert curve.auc == pytest.approx(1.0)
        assert curve.fpr == (0.0, 0.0, 0.0, 0.5, 1.0)
        assert curve.tpr == (0.0, 0.5, 1.0, 1.0, 1.0)
        assert curve.thresholds[0] == math.inf

    def test_inverted_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == pytest.approx(0.0)

    def test_ties_get_half_credit(self):
        # Pairs: (0.8+, 0.8-) tie = 0.5; (0.8+, 0.3-) = 1; (0.5+, 0.8-) = 0;
        # (0.5+, 0.3-) = 1 -> Mann-Whitney AUC = 2.5/4.
        assert auc([0.8, 0.8, 0.5, 0.3], [1, 0, 1, 0]) == pytest.approx(0.625)

    def test_tie_group_forms_one_vertex(self):
        curve = roc_curve([0.7, 0.7, 0.7, 0.2], [1, 0, 1, 0])
        # One vertex for the 0.7 group, one for 0.2, plus the origin.
        assert len(curve.thresholds) == 3

    def test_one_class_inputs_are_nan(self):
        assert math.isnan(auc([0.4, 0.6], [1, 1]))
        assert math.isnan(auc([0.4, 0.6], [0, 0]))
        assert math.isnan(auc([], []))

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1])


class TestRankingGoldenValues:
    def test_average_precision_hand_computed(self):
        # Descending: 0.9(P) R=1/2 P=1/1; 0.8(N) dR=0; 0.7(P) R=1 P=2/3
        # AP = 0.5*1 + 0.5*(2/3) = 5/6.
        value = average_precision([0.9, 0.8, 0.7], [1, 0, 1])
        assert value == pytest.approx(5.0 / 6.0)

    def test_average_precision_no_positives_is_nan(self):
        assert math.isnan(average_precision([0.9, 0.1], [0, 0]))

    def test_precision_at_k(self):
        scores = [0.9, 0.8, 0.7, 0.6]
        labels = [1, 0, 1, 0]
        assert precision_at_k(scores, labels, 1) == pytest.approx(1.0)
        assert precision_at_k(scores, labels, 2) == pytest.approx(0.5)
        assert precision_at_k(scores, labels, 10) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            precision_at_k(scores, labels, 0)

    def test_precision_at_k_breaks_ties_by_input_order(self):
        assert precision_at_k([0.5, 0.5], [1, 0], 1) == pytest.approx(1.0)
        assert precision_at_k([0.5, 0.5], [0, 1], 1) == pytest.approx(0.0)

    def test_precision_recall_f1_hand_computed(self):
        point = precision_recall_f1([0.9, 0.8, 0.3, 0.1], [1, 0, 1, 0], 0.5)
        assert point.true_positives == 1
        assert point.false_positives == 1
        assert point.false_negatives == 1
        assert point.precision == pytest.approx(0.5)
        assert point.recall == pytest.approx(0.5)
        assert point.f1 == pytest.approx(0.5)

    def test_precision_is_nan_when_nothing_called(self):
        point = precision_recall_f1([0.1, 0.2], [1, 0], 0.9)
        assert math.isnan(point.precision)
        assert point.recall == pytest.approx(0.0)
        assert math.isnan(point.f1)

    def test_threshold_sweep_defaults_to_distinct_scores(self):
        points = threshold_sweep([0.9, 0.9, 0.5], [1, 0, 1])
        assert [point.threshold for point in points] == [0.9, 0.5]

    def test_operating_point_auc_hand_computed(self):
        scores = [0.9, 0.8, 0.2, 0.1]
        labels = [1, 1, 0, 0]
        assert operating_point_auc(scores, labels, 0.5) == pytest.approx(1.0)
        # Threshold below everything: everyone called, chance level.
        assert operating_point_auc(scores, labels, 0.05) == pytest.approx(0.5)
        # TPR 1/2, FPR 0 -> (0.5 + 1) / 2.
        assert operating_point_auc(scores, labels, 0.85) == pytest.approx(0.75)
        assert math.isnan(operating_point_auc(scores, [0, 0, 0, 0], 0.5))

    def test_operating_point_auc_is_threshold_sensitive(self):
        # The same ranking scores 1.0 at a usable cut and 0.5 at a useless
        # one: the reason detection_eval reports this next to the plain AUC.
        scores = [1.0, 0.89, 0.9, 0.91]
        labels = [0, 1, 1, 1]
        suspicion = [-s for s in scores]
        assert auc(suspicion, labels) == pytest.approx(1.0)
        assert operating_point_auc(suspicion, labels, -0.95) == pytest.approx(1.0)
        assert operating_point_auc(suspicion, labels, -0.2) == pytest.approx(0.5)

    def test_time_to_detection(self):
        history = ((100.0, 0.5), (200.0, 0.15), (300.0, 0.4))
        assert time_to_detection(history, 0.2) == pytest.approx(200.0)
        assert time_to_detection(history, 0.1) is None
        assert time_to_detection((), 0.2) is None


# --------------------------------------------------------------------- #
# Ranking: properties                                                     #
# --------------------------------------------------------------------- #
class TestRankingProperties:
    def test_auc_invariant_under_strictly_monotone_rescaling(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            scores = rng.normal(size=60)
            labels = rng.random(60) < 0.4
            if labels.all() or not labels.any():
                continue
            baseline = auc(scores, labels)
            for transform in (
                lambda s: 2.0 * s + 3.0,
                np.exp,
                lambda s: np.arctan(s / 4.0),
            ):
                assert auc(transform(scores), labels) == pytest.approx(baseline)

    def test_auc_degrades_to_chance_on_shuffled_labels(self):
        rng = np.random.default_rng(11)
        scores = rng.random(600)
        labels = np.zeros(600, dtype=bool)
        labels[:300] = True
        values = []
        for _ in range(10):
            rng.shuffle(labels)
            values.append(auc(scores, labels))
        # Null-hypothesis AUC has std ~0.024 at this size; the mean of ten
        # draws sits well within this band.
        assert abs(float(np.mean(values)) - 0.5) < 0.05

    def test_auc_is_input_order_independent(self):
        rng = np.random.default_rng(13)
        scores = np.round(rng.random(50), 1)  # coarse grid -> many ties
        labels = rng.random(50) < 0.5
        order = rng.permutation(50)
        assert auc(scores[order], labels[order]) == pytest.approx(
            auc(scores, labels)
        )


# --------------------------------------------------------------------- #
# Calibration                                                             #
# --------------------------------------------------------------------- #
class TestCalibration:
    def test_brier_golden_values(self):
        assert brier_score([1.0, 0.0], [1, 0]) == pytest.approx(0.0)
        assert brier_score([0.5, 0.5], [1, 0]) == pytest.approx(0.25)
        # ((0.8-1)^2 + (0.4-0)^2) / 2 = (0.04 + 0.16) / 2.
        assert brier_score([0.8, 0.4], [1, 0]) == pytest.approx(0.1)
        assert math.isnan(brier_score([], []))

    def test_probabilities_outside_unit_interval_raise(self):
        with pytest.raises(ValueError):
            brier_score([1.2], [1])
        with pytest.raises(ValueError):
            brier_score([-0.1], [0])

    def test_ece_hand_computed(self):
        # Bin 0: conf 0.05 vs freq 0 (gap 0.05); bin 1: conf 0.15 vs freq 1
        # (gap 0.85); bin 9: conf 0.95 vs freq 1 (gap 0.05); equal weights.
        value = expected_calibration_error([0.05, 0.15, 0.95], [0, 1, 1])
        assert value == pytest.approx((0.05 + 0.85 + 0.05) / 3.0)

    def test_perfectly_calibrated_bins_have_zero_ece(self):
        probs = [0.25] * 4 + [0.75] * 4
        outcomes = [1, 0, 0, 0, 1, 1, 1, 0]
        assert expected_calibration_error(probs, outcomes) == pytest.approx(0.0)

    def test_reliability_bins_are_fixed_width_and_top_inclusive(self):
        diagram = reliability_diagram([0.0, 0.05, 1.0], [0, 0, 1], num_bins=10)
        assert len(diagram.bins) == 10
        assert diagram.bins[0].count == 2  # 0.0 and 0.05
        assert diagram.bins[9].count == 1  # 1.0 lands in the last bin
        assert diagram.bins[5].count == 0
        assert math.isnan(diagram.bins[5].mean_confidence)
        assert diagram.samples == 3
        assert diagram.brier == pytest.approx(
            brier_score([0.0, 0.05, 1.0], [0, 0, 1])
        )

    def test_diagram_is_json_serialisable(self):
        import json

        diagram = reliability_diagram([0.2, 0.8], [0, 1], num_bins=2)
        document = diagram.to_dict()
        assert json.loads(json.dumps(document)) == document


# --------------------------------------------------------------------- #
# Labels: engine integration                                              #
# --------------------------------------------------------------------- #
class TestEngineLabels:
    def test_adversary_run_carries_identities_and_payload(self):
        summary = run_simulation(adversary_params())
        assert summary.adversary_identities
        assert summary.detection is not None
        assert summary.detection["scheme"] == summary.params.reputation_scheme
        assert summary.detection["snapshots"]

    def test_whitewash_rebirths_are_labelled(self):
        summary = run_simulation(adversary_params("whitewash_waves"))
        founders = summary.params.num_initial_peers
        # Rebirth identities are allocated after the founding population.
        assert any(
            peer_id >= founders for peer_id in summary.adversary_identities
        )

    def test_clean_run_carries_neither(self):
        summary = run_simulation(small_params())
        assert summary.adversary_identities is None
        assert summary.detection is None
        assert "detection" not in summary.to_dict()
        assert "adversary_identities" not in summary.to_dict()

    def test_labels_never_perturb_the_digest_document(self):
        """The digest is the currency of golden tests and trace replay, so
        derived observability data must be stripped before hashing."""
        summary = run_simulation(adversary_params())
        document = summary.to_dict()
        assert "adversary_identities" in document
        assert "detection" in document
        stripped = RunSummary.from_dict(document)
        stripped.adversary_identities = None
        stripped.detection = None
        assert summary_digest(stripped) == summary_digest(summary)

    def test_round_trip_preserves_labels(self):
        summary = run_simulation(adversary_params())
        restored = RunSummary.from_dict(summary.to_dict())
        assert restored.adversary_identities == summary.adversary_identities
        assert restored.detection == summary.detection

    def test_label_set_from_summary(self):
        summary = run_simulation(adversary_params())
        labels = LabelSet.from_summary(summary)
        assert len(labels) > 0
        assert labels.threshold == pytest.approx(
            summary.params.effective_min_intro_reputation()
        )
        assert labels.source == "summary"
        assert set(labels.adversary_ids()) == set(summary.adversary_identities)
        cells = labels.cells()
        peer_id, final_score, history, is_adversary = cells[0]
        assert isinstance(peer_id, int)
        assert isinstance(final_score, float)
        assert isinstance(is_adversary, bool)
        scores, flags = labels.scored()
        assert len(scores) == len(flags)
        assert any(flags) and not all(flags)
        suspicion, _ = labels.suspicion()
        assert suspicion == [-score for score in scores]

    def test_from_summary_requires_detection_payload(self):
        summary = run_simulation(small_params())
        with pytest.raises(ValueError):
            LabelSet.from_summary(summary)

    def test_histories_track_membership_snapshots(self):
        summary = run_simulation(adversary_params())
        labels = LabelSet.from_summary(summary)
        with_history = [label for label in labels.labels if label.history]
        assert with_history
        for label in with_history:
            times = [time for time, _ in label.history]
            assert times == sorted(times)

    def test_label_set_to_dict_is_json_serialisable(self):
        import json

        summary = run_simulation(adversary_params())
        document = LabelSet.from_summary(summary).to_dict()
        assert json.loads(json.dumps(document)) == document
