"""Parity tests: shared-statistic OvO fitting vs the per-pair oracle.

The bases cover both input classes ``OneVsOneClassifier.fit`` accepts: a
``fit_from_stats`` base (LDA / QDA / naive Bayes, assembled from shared
per-class statistics) and a per-pair base (SVC, refit on every pair).
"""

import numpy as np
import pytest

from repro.ml import LDA, QDA, SVC, ClassStats, GaussianNB, OneVsOneClassifier
from tests.oracles import ovo_fit, ovo_predict, ovo_vote_matrix


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    centers = rng.normal(0, 3, (5, 6))
    X = np.concatenate(
        [center + rng.normal(0, 1, (40, 6)) for center in centers]
    )
    y = np.repeat(np.arange(5), 40)
    shuffle = rng.permutation(len(y))
    return X[shuffle], y[shuffle]


BASES = [
    pytest.param(lambda: LDA(), id="lda"),
    pytest.param(lambda: QDA(), id="qda"),
    pytest.param(lambda: GaussianNB(), id="gnb"),
    pytest.param(lambda: SVC(C=1.0, gamma=0.2), id="svc"),
]


class TestSharedStatFitParity:
    @pytest.mark.parametrize("factory", BASES)
    def test_votes_and_predictions_match_reference(self, data, factory):
        X, y = data
        fast = OneVsOneClassifier(factory()).fit(X, y)
        slow = ovo_fit(OneVsOneClassifier(factory()), X, y)
        np.testing.assert_array_equal(fast.vote_matrix(X), slow.vote_matrix(X))
        np.testing.assert_array_equal(fast.predict(X), slow.predict(X))

    @pytest.mark.parametrize("factory", BASES)
    def test_vectorized_inference_matches_loop(self, data, factory):
        X, y = data
        model = OneVsOneClassifier(factory()).fit(X, y)
        np.testing.assert_array_equal(
            model.vote_matrix(X), ovo_vote_matrix(model, X)
        )
        np.testing.assert_array_equal(
            model.predict(X), ovo_predict(model, X)
        )

    def test_lda_pair_templates_bit_exact(self, data):
        X, y = data
        fast = OneVsOneClassifier(LDA()).fit(X, y)
        slow = ovo_fit(OneVsOneClassifier(LDA()), X, y)
        for pair, estimator in fast.estimators_.items():
            np.testing.assert_array_equal(
                estimator.decision_function(X),
                slow.estimators_[pair].decision_function(X),
            )

    def test_qda_pair_templates_bit_exact(self, data):
        X, y = data
        fast = OneVsOneClassifier(QDA()).fit(X, y)
        slow = ovo_fit(OneVsOneClassifier(QDA()), X, y)
        for pair, estimator in fast.estimators_.items():
            np.testing.assert_array_equal(
                estimator.decision_function(X),
                slow.estimators_[pair].decision_function(X),
            )

    def test_gnb_soft_scores_within_tolerance(self, data):
        """The recombined smoothing term is algebraic, not bit-exact."""
        X, y = data
        fast = OneVsOneClassifier(GaussianNB()).fit(X, y)
        slow = ovo_fit(OneVsOneClassifier(GaussianNB()), X, y)
        for pair, estimator in fast.estimators_.items():
            np.testing.assert_allclose(
                estimator.predict_proba(X),
                slow.estimators_[pair].predict_proba(X),
                rtol=0,
                atol=1e-9,
            )

    def test_svc_parallel_pair_fit_matches_serial(self, data):
        X, y = data
        serial = OneVsOneClassifier(SVC(C=1.0, gamma=0.2), n_jobs=1).fit(X, y)
        pooled = OneVsOneClassifier(SVC(C=1.0, gamma=0.2), n_jobs=2).fit(X, y)
        np.testing.assert_array_equal(serial.predict(X), pooled.predict(X))
        np.testing.assert_array_equal(
            serial.vote_matrix(X), pooled.vote_matrix(X)
        )


class TestClassStats:
    def test_pooled_variance_matches_direct(self, data):
        X, y = data
        stats = ClassStats.from_Xy(X, y)
        mask = (y == 1) | (y == 3)
        indices = [1, 3]
        np.testing.assert_allclose(
            stats.pooled_variance(indices),
            X[mask].var(axis=0),
            rtol=1e-12,
        )

    def test_subset_priors_sum_to_one(self, data):
        X, y = data
        stats = ClassStats.from_Xy(X, y)
        priors = stats.subset_priors([0, 2])
        assert priors.sum() == pytest.approx(1.0)

    def test_moments_match_reference_expressions(self, data):
        X, y = data
        stats = ClassStats.from_Xy(X, y)
        block = X[y == 2]
        np.testing.assert_array_equal(stats.means[2], block.mean(axis=0))
        np.testing.assert_array_equal(stats.vars[2], block.var(axis=0))
        centered = block - block.mean(axis=0)
        np.testing.assert_array_equal(stats.scatters[2], centered.T @ centered)
