"""Classification metrics and the pairwise AUC oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import auc_oracle
from pedintent.errors import ContractError
from pedintent.metrics import evaluate, report_to_csv


class TestEvaluate:
    def test_hand_confusion_example(self):
        report = evaluate([0.9, 0.2, 0.8, 0.7], [1, 0, 0, 1])
        assert (report.tp, report.fp, report.tn, report.fn) == (2, 1, 1, 0)
        assert report.accuracy == 0.75
        assert abs(report.precision - 2 / 3) < 1e-12
        assert report.recall == 1.0
        assert abs(report.f1 - 0.8) < 1e-12

    def test_perfect_separation_auc(self):
        assert evaluate([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]).auc == 1.0

    def test_half_ordered_pairs(self):
        # 2 of 4 positive-negative pairs correctly ordered
        assert evaluate([0.9, 0.4, 0.6, 0.2], [1, 0, 0, 1]).auc == 0.5

    def test_threshold_semantics_ge(self):
        report = evaluate([0.5, 0.49], [1, 0], threshold=0.5)
        assert (report.tp, report.tn) == (1, 1)

    def test_zero_denominator_conventions(self):
        report = evaluate([0.1, 0.2], [0, 0], threshold=0.5)
        assert report.precision == 0.0 and report.recall == 0.0 and report.f1 == 0.0

    def test_single_class_auc_undefined(self):
        report = evaluate([0.2, 0.9], [1, 1])
        assert report.auc is None

    def test_accuracy_at_threshold_zero_is_prevalence(self):
        rng = np.random.default_rng(0)
        scores = rng.random(40)
        labels = rng.integers(0, 2, size=40)
        report = evaluate(scores, labels, threshold=0.0)
        assert report.accuracy == labels.mean()

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(1)
        report = evaluate(rng.random(33), rng.integers(0, 2, size=33))
        assert report.n == 33

    def test_contract_errors(self):
        with pytest.raises(ContractError):
            evaluate([0.5], [1, 0])
        with pytest.raises(ContractError):
            evaluate([], [])
        with pytest.raises(ContractError):
            evaluate([0.5], [2])


class TestAucOracle:
    def test_all_ties(self):
        assert auc_oracle([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_label_flip_symmetry(self):
        rng = np.random.default_rng(2)
        scores = rng.random(30)  # continuous, ties have measure zero
        labels = rng.integers(0, 2, size=30)
        while labels.sum() in (0, 30):
            labels = rng.integers(0, 2, size=30)
        assert abs(auc_oracle(scores, labels) + auc_oracle(scores, 1 - labels) - 1.0) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            auc_oracle([0.1, 0.9], [1, 1])

    def test_matches_rank_estimator_random(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(2, 200))
            scores = np.round(rng.random(n), 2)  # coarse grid forces ties
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            assert abs(evaluate(scores, labels).auc - auc_oracle(scores, labels)) < 1e-12

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_rank_estimator_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            return
        assert abs(evaluate(scores, labels).auc - auc_oracle(scores, labels)) < 1e-12

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(4)
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        while labels.sum() in (0, 50):
            labels = rng.integers(0, 2, size=50)
        base = evaluate(scores, labels).auc
        squashed = evaluate(1.0 / (1.0 + np.exp(-7 * scores)), labels).auc
        assert abs(base - squashed) < 1e-12


class TestReportCsv:
    def test_column_order(self):
        report = evaluate([0.9, 0.2, 0.8, 0.7], [1, 0, 0, 1])
        text = report_to_csv(report)
        lines = text.strip().splitlines()
        assert lines[0] == "accuracy,auc,f1,precision,recall"
        cells = lines[1].split(",")
        assert float(cells[0]) == 0.75
        assert abs(float(cells[2]) - 0.8) < 1e-12

    def test_undefined_auc_is_nan_not_zero(self):
        report = evaluate([0.9, 0.8], [1, 1])
        cells = report_to_csv(report).strip().splitlines()[1].split(",")
        assert np.isnan(float(cells[1]))

    def test_f1_harmonic_mean_consistency(self):
        rng = np.random.default_rng(5)
        report = evaluate(rng.random(60), rng.integers(0, 2, size=60))
        if report.precision > 0 and report.recall > 0:
            hm = 2 * report.precision * report.recall / (report.precision + report.recall)
            assert abs(report.f1 - hm) < 1e-12
