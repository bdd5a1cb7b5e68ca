"""SVM/SMO correctness tests."""

import numpy as np
import pytest

from repro.ml import SVC, linear_kernel, rbf_kernel
from tests.oracles import svc_predict


class TestKernels:
    def test_rbf_diagonal_ones(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (10, 3))
        K = rbf_kernel(X, X, gamma=0.5)
        np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-12)

    def test_rbf_symmetry_and_range(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (12, 4))
        K = rbf_kernel(X, X, gamma=1.0)
        np.testing.assert_allclose(K, K.T, atol=1e-12)
        assert np.all(K > 0) and np.all(K <= 1 + 1e-12)

    def test_linear_kernel(self):
        A = np.array([[1.0, 2.0]])
        B = np.array([[3.0, 4.0]])
        assert linear_kernel(A, B)[0, 0] == 11.0


class TestBinary:
    def test_separable_margin(self):
        rng = np.random.default_rng(2)
        X = np.concatenate([rng.normal(-2, 0.5, (100, 2)), rng.normal(2, 0.5, (100, 2))])
        y = np.repeat([0, 1], 100)
        clf = SVC(C=10, kernel="linear").fit(X, y)
        assert clf.score(X, y) == 1.0

    def test_xor_needs_rbf(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (400, 2))
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        assert SVC(C=10, gamma=2.0).fit(X, y).score(X, y) > 0.97
        assert SVC(C=10, kernel="linear").fit(X, y).score(X, y) < 0.7

    def test_decision_sign_matches_prediction(self):
        rng = np.random.default_rng(4)
        X = np.concatenate([rng.normal(-1, 0.6, (60, 2)), rng.normal(1, 0.6, (60, 2))])
        y = np.repeat([0, 1], 60)
        clf = SVC(C=5).fit(X, y)
        decision = clf.decision_function(X)
        pred = clf.predict(X)
        # positive decision votes for classes_[0]
        assert np.all((decision > 0) == (pred == clf.classes_[0]))

    def test_support_vectors_subset(self):
        rng = np.random.default_rng(5)
        X = np.concatenate([rng.normal(-3, 0.4, (80, 2)), rng.normal(3, 0.4, (80, 2))])
        y = np.repeat([0, 1], 80)
        clf = SVC(C=1.0).fit(X, y)
        machine = clf._machines[(0, 1)]
        # widely separated blobs need few support vectors
        assert len(machine.support_vectors_) < 40

    def test_soft_margin_tolerates_label_noise(self):
        rng = np.random.default_rng(6)
        X = np.concatenate([rng.normal(-1.5, 1, (150, 2)), rng.normal(1.5, 1, (150, 2))])
        y = np.repeat([0, 1], 150)
        flip = rng.choice(300, 15, replace=False)
        y_noisy = y.copy()
        y_noisy[flip] ^= 1
        clf = SVC(C=1.0).fit(X, y_noisy)
        assert clf.score(X, y) > 0.9  # generalizes past the flipped labels


class TestMulticlass:
    def test_three_blobs(self):
        rng = np.random.default_rng(7)
        X = np.concatenate([
            rng.normal((0, 0), 0.7, (80, 2)),
            rng.normal((5, 0), 0.7, (80, 2)),
            rng.normal((0, 5), 0.7, (80, 2)),
        ])
        y = np.repeat([0, 1, 2], 80)
        clf = SVC(C=10).fit(X, y)
        assert clf.score(X, y) > 0.98
        assert len(clf._machines) == 3  # one-vs-one pairs

    def test_gamma_scale_resolution(self):
        rng = np.random.default_rng(8)
        X = rng.normal(0, 2.0, (50, 4))
        y = (X[:, 0] > 0).astype(int)
        clf = SVC(gamma="scale").fit(X, y)
        assert clf.gamma_ == pytest.approx(1.0 / (4 * X.var()), rel=1e-9)

    def test_gamma_auto(self):
        rng = np.random.default_rng(9)
        X = rng.normal(0, 1, (30, 5))
        y = (X[:, 0] > 0).astype(int)
        assert SVC(gamma="auto").fit(X, y).gamma_ == pytest.approx(0.2)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            SVC(kernel="poly")

    def test_labels_preserved(self):
        rng = np.random.default_rng(10)
        X = np.concatenate([rng.normal(-2, 0.3, (30, 2)), rng.normal(2, 0.3, (30, 2))])
        y = np.repeat([7, 42], 30)
        clf = SVC(C=5).fit(X, y)
        assert set(clf.predict(X)) <= {7, 42}

    def test_predict_matches_vote_oracle_with_tied_votes(self):
        """Votes first, summed margins break ties (the per-pair loop)."""
        rng = np.random.default_rng(11)
        centers = [(0, 0), (4, 0), (2, 3.5), (2, -3.5)]
        X = np.concatenate([rng.normal(c, 0.9, (40, 2)) for c in centers])
        y = np.repeat([3, 5, 8, 13], 40)
        clf = SVC(C=1.0, gamma=0.3).fit(X, y)
        g = np.linspace(-3, 7, 41)
        grid = np.column_stack([np.repeat(g, len(g)), np.tile(g, len(g))])
        np.testing.assert_array_equal(
            clf.predict(grid), svc_predict(clf, grid)
        )
        # The grid must exercise the tie-break: some points split their
        # votes evenly between two or more classes.
        margins = clf._margins(grid)
        votes = np.zeros((len(grid), 4))
        for (a, b), margin in zip(sorted(clf._machines), margins):
            votes[:, a] += margin > 0
            votes[:, b] += margin <= 0
        top = votes.max(axis=1, keepdims=True)
        assert ((votes == top).sum(axis=1) > 1).any()

    def test_parallel_pair_fit_matches_serial(self):
        rng = np.random.default_rng(13)
        centers = [(0, 0), (3, 0), (0, 3), (3, 3)]
        X = np.concatenate([rng.normal(c, 0.8, (30, 2)) for c in centers])
        y = np.repeat(np.arange(4), 30)
        serial = SVC(C=1.0, gamma=0.2, n_jobs=1).fit(X, y)
        pooled = SVC(C=1.0, gamma=0.2, n_jobs=2).fit(X, y)
        np.testing.assert_array_equal(serial.predict(X), pooled.predict(X))
        np.testing.assert_array_equal(
            serial.decision_function(X), pooled.decision_function(X)
        )
