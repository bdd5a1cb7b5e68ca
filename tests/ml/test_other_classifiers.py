"""GaussianNB and kNN tests."""

import numpy as np

from repro.ml import GaussianNB, KNeighborsClassifier


def blobs(rng, means, n=80, scale=1.0):
    X = np.concatenate([rng.normal(m, scale, (n, len(m))) for m in means])
    y = np.repeat(np.arange(len(means)), n)
    return X, y


class TestGaussianNB:
    def test_blobs(self):
        rng = np.random.default_rng(0)
        X, y = blobs(rng, [(0, 0), (5, 5)])
        assert GaussianNB().fit(X, y).score(X, y) > 0.98

    def test_axis_aligned_variances_learned(self):
        rng = np.random.default_rng(1)
        a = np.column_stack([rng.normal(0, 0.3, 500), rng.normal(0, 5, 500)])
        b = np.column_stack([rng.normal(2, 0.3, 500), rng.normal(0, 5, 500)])
        X = np.concatenate([a, b])
        y = np.repeat([0, 1], 500)
        clf = GaussianNB().fit(X, y)
        assert clf.score(X, y) > 0.98
        # the noisy dimension's variance dwarfs the informative one's
        assert clf.vars_[0, 1] > 20 * clf.vars_[0, 0]

    def test_proba_normalized(self):
        rng = np.random.default_rng(2)
        X, y = blobs(rng, [(0, 0), (3, 0), (0, 3)])
        proba = GaussianNB().fit(X, y).predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)


class TestKNN:
    def test_one_nn_memorizes(self):
        rng = np.random.default_rng(3)
        X, y = blobs(rng, [(0, 0), (1.5, 0)], n=40)
        assert KNeighborsClassifier(1).fit(X, y).score(X, y) == 1.0

    def test_k_larger_than_train_clamped(self):
        X = np.array([[0.0], [1.0], [10.0]])
        y = np.array([0, 0, 1])
        clf = KNeighborsClassifier(99).fit(X, y)
        assert clf.predict(np.array([[0.5]]))[0] == 0  # majority of all 3

    def test_majority_vote(self):
        X = np.array([[0.0], [0.1], [0.2], [5.0]])
        y = np.array([0, 0, 0, 1])
        clf = KNeighborsClassifier(3).fit(X, y)
        assert clf.predict(np.array([[0.05]]))[0] == 0

    def test_blocked_prediction_matches(self):
        rng = np.random.default_rng(4)
        X, y = blobs(rng, [(0, 0), (4, 4)], n=100)
        a = KNeighborsClassifier(5, block_size=7).fit(X, y).predict(X)
        b = KNeighborsClassifier(5, block_size=512).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

