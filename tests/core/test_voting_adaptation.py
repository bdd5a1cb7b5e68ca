"""Majority-voting classifier and shift-report tests."""

import numpy as np
import pytest

from repro.core import PairwiseVotingClassifier, ShiftReport
from repro.features import FeatureConfig
from repro.ml import QDA
from repro.power import Acquisition
from tests.oracles import voting_pair_points, voting_predict


@pytest.fixture(scope="module")
def g1_subset():
    acq = Acquisition(seed=21)
    full = acq.capture_instruction_set(["ADD", "EOR", "OR", "AND"], 80, 4)
    rng = np.random.default_rng(0)
    return full.split_random(0.75, rng)


class TestVoting:
    def test_fit_predict(self, g1_subset):
        train, test = g1_subset
        voting = PairwiseVotingClassifier(
            FeatureConfig(kl_threshold="auto:0.9", n_components=3),
            classifier_factory=QDA,
            n_variables=3,
        )
        voting.fit(train)
        assert voting.n_binary_classifiers == 6
        assert voting.score(test) > 0.8

    def test_few_variables_still_accurate(self, g1_subset):
        """The headline property of §5.4: high SR at tiny budgets."""
        train, test = g1_subset
        voting = PairwiseVotingClassifier(
            FeatureConfig(kl_threshold="auto:0.9"),
            classifier_factory=QDA,
            n_variables=2,
        )
        voting.fit(train)
        assert voting.score(test) > 0.7

    def test_predictions_in_label_space(self, g1_subset):
        train, test = g1_subset
        voting = PairwiseVotingClassifier(n_variables=3)
        voting.fit(train)
        assert set(voting.predict(test.traces[:20])) <= {0, 1, 2, 3}

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            PairwiseVotingClassifier().predict(np.zeros((2, 315)))

    def test_vectorized_predict_matches_reference(self, g1_subset):
        train, test = g1_subset
        voting = PairwiseVotingClassifier(
            FeatureConfig(kl_threshold="auto:0.9", n_components=3),
            classifier_factory=QDA,
            n_variables=3,
        )
        voting.fit(train)
        np.testing.assert_array_equal(
            voting.predict(test.traces),
            voting_predict(voting, test.traces),
        )

    def test_batched_fit_matches_reference_fit(self, g1_subset):
        """The batched fit selects the oracle's per-pair points."""
        train, test = g1_subset
        voting = PairwiseVotingClassifier(
            FeatureConfig(kl_threshold="auto:0.9", n_components=3),
            classifier_factory=QDA,
            n_variables=3,
        )
        voting.fit(train)
        fitted = {
            (pair.code_a, pair.code_b): [
                voting._points[c] for c in pair.columns
            ]
            for pair in voting._pairs
        }
        assert fitted == voting_pair_points(voting, train)

    def test_points_per_pair_default(self):
        voting = PairwiseVotingClassifier(n_variables=3)
        assert voting.points_per_pair == 10
        voting12 = PairwiseVotingClassifier(n_variables=12)
        assert voting12.points_per_pair == 12


class TestShiftReport:
    def test_no_shift(self):
        rng = np.random.default_rng(0)
        train = rng.normal(0, 1, (500, 4))
        test = rng.normal(0, 1, (500, 4))
        report = ShiftReport.between(train, test)
        assert report.mean_shift < 0.2
        assert not report.is_shifted

    def test_detects_mean_shift(self):
        rng = np.random.default_rng(1)
        train = rng.normal(0, 1, (500, 4))
        test = rng.normal(2, 1, (500, 4))
        report = ShiftReport.between(train, test)
        assert report.mean_shift > 1.5
        assert report.is_shifted

    def test_variance_ratio(self):
        rng = np.random.default_rng(2)
        train = rng.normal(0, 1, (500, 3))
        test = rng.normal(0, 3, (500, 3))
        report = ShiftReport.between(train, test)
        assert report.variance_ratio > 5.0
