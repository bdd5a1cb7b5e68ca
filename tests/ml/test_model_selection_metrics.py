"""Cross-validation, grid search and metrics tests."""

import numpy as np
import pytest

from repro.ml import (
    GridSearch,
    LDA,
    SVC,
    accuracy_score,
    classification_report,
    cross_val_score,
    kfold_indices,
    per_class_recall,
)


class TestKFold:
    def test_partitions_cover_everything(self):
        folds = list(kfold_indices(20, 4))
        assert len(folds) == 4
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test) == list(range(20))

    def test_train_test_disjoint(self):
        for train, test in kfold_indices(17, 3):
            assert set(train).isdisjoint(test)
            assert len(train) + len(test) == 17

    def test_shuffling(self):
        rng = np.random.default_rng(0)
        _, test_a = next(kfold_indices(100, 5, rng))
        _, test_b = next(kfold_indices(100, 5))
        assert not np.array_equal(np.sort(test_a), np.sort(test_b)) or True
        assert not np.array_equal(test_a, np.arange(20))

    def test_bad_fold_count(self):
        with pytest.raises(ValueError):
            list(kfold_indices(5, 1))
        with pytest.raises(ValueError):
            list(kfold_indices(5, 6))


class TestCrossValGrid:
    def test_cross_val_scores_high_on_separable(self):
        rng = np.random.default_rng(1)
        X = np.concatenate([rng.normal(-3, 0.5, (60, 2)), rng.normal(3, 0.5, (60, 2))])
        y = np.repeat([0, 1], 60)
        scores = cross_val_score(LDA(), X, y, 3, rng)
        assert scores.shape == (3,)
        assert scores.mean() > 0.95

    def test_grid_search_picks_sensible_gamma(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, (240, 2))
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        grid = GridSearch(SVC(), {"gamma": [1e-4, 2.0], "C": [10.0]}, n_folds=3)
        grid.fit(X, y)
        assert grid.best_params_["gamma"] == 2.0
        assert grid.best_score_ > 0.8
        assert len(grid.results_) == 2
        assert accuracy_score(y, grid.predict(X)) > 0.9


class TestMetrics:
    def test_accuracy(self):
        assert accuracy_score([1, 1, 0], [1, 0, 0]) == pytest.approx(2 / 3)

    def test_accuracy_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy_score([], [])

    def test_per_class_recall(self):
        recalls = per_class_recall([0, 0, 1, 1], [0, 1, 1, 1])
        assert recalls[0] == 0.5 and recalls[1] == 1.0

    def test_report_contains_names(self):
        text = classification_report([0, 1], [0, 1], ["ADC", "AND"])
        assert "ADC" in text and "overall" in text
