"""One-vs-one oracles: refit per pair, accumulate votes pair by pair."""

import numpy as np

from repro.ml.base import check_Xy


def ovo_fit(ovo, X, y):
    """Serial :meth:`repro.ml.ovo.OneVsOneClassifier.fit`.

    Refits a clone of the base estimator on every pair's row subset — no
    shared sufficient statistics, no worker pool.
    """
    X, y = check_Xy(X, y)
    ovo.classes_ = np.unique(y)
    ovo.estimators_ = {}
    n_classes = len(ovo.classes_)
    for a in range(n_classes):
        for b in range(a + 1, n_classes):
            mask = (y == ovo.classes_[a]) | (y == ovo.classes_[b])
            clone = ovo.base_estimator.clone()
            clone.fit(X[mask], y[mask])
            ovo.estimators_[(a, b)] = clone
    return ovo


def _soft_score(estimator, X, class_a):
    """Signed score favouring ``class_a`` when positive, if available."""
    if hasattr(estimator, "predict_proba"):
        proba = estimator.predict_proba(X)
        return proba[:, list(estimator.classes_).index(class_a)] - 0.5
    if hasattr(estimator, "decision_function"):
        decision = estimator.decision_function(X)
        if decision.ndim == 1:
            return decision if estimator.classes_[0] == class_a else -decision
    return None


def _votes_and_scores(ovo, X):
    votes = np.zeros((len(X), len(ovo.classes_)))
    scores = np.zeros((len(X), len(ovo.classes_)))
    for (a, b), estimator in ovo.estimators_.items():
        winner_a = estimator.predict(X) == ovo.classes_[a]
        votes[winner_a, a] += 1
        votes[~winner_a, b] += 1
        soft = _soft_score(estimator, X, ovo.classes_[a])
        if soft is not None:
            scores[:, a] += soft
            scores[:, b] -= soft
    return votes, scores


def ovo_vote_matrix(ovo, X):
    """Per-pair accumulation of :meth:`OneVsOneClassifier.vote_matrix`."""
    votes, _ = _votes_and_scores(ovo, check_Xy(X))
    return votes


def ovo_predict(ovo, X):
    """Per-pair accumulation of :meth:`OneVsOneClassifier.predict`."""
    votes, scores = _votes_and_scores(ovo, check_Xy(X))
    ranking = votes + 1e-9 * np.tanh(scores)
    return ovo.classes_[np.argmax(ranking, axis=1)]
