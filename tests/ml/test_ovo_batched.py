"""Parity tests: the one-vs-one vote of ``SVC`` vs per-pair references.

``SVC.predict`` reduces its pair machines through
``repro.ml.ovo.pairwise_vote``; these tests hold that reduction to the
per-pair ``svc_predict`` oracle and to a per-sample vote loop.
"""

import numpy as np
import pytest

from repro.ml import SVC
from repro.ml.ovo import pairwise_vote
from tests.oracles import svc_predict


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
    pytest.param(lambda: SVC(C=1.0, gamma=0.2), id="svc"),
]


def _per_sample_votes(model, X):
    """Vote counts and argmax winners, one sample and one pair at a time."""
    n_classes = len(model.classes_)
    votes = np.zeros((len(X), n_classes))
    winners = np.empty(len(X), dtype=np.intp)
    for i, x in enumerate(X):
        score = np.zeros(n_classes)
        for (a, b), machine in sorted(model._machines.items()):
            margin = float(machine.decision_function(x[None, :])[0])
            votes[i, a if margin > 0 else b] += 1
            score[a] += margin
            score[b] -= margin
        winners[i] = np.argmax(votes[i] + 1e-9 * np.tanh(score))
    return votes, winners


class TestSharedStatFitParity:
    @pytest.mark.parametrize("factory", BASES)
    def test_votes_and_predictions_match_reference(self, data, factory):
        X, y = data
        model = factory().fit(X, y)
        pairs = sorted(model._machines)
        decision = model.decision_function(X)
        for column, pair in enumerate(pairs):
            np.testing.assert_array_equal(
                decision[:, column],
                model._machines[pair].decision_function(X),
            )
        np.testing.assert_array_equal(model.predict(X), svc_predict(model, X))

    @pytest.mark.parametrize("factory", BASES)
    def test_vectorized_inference_matches_loop(self, data, factory):
        X, y = data
        model = factory().fit(X, y)
        margins = model.decision_function(X).T
        votes, winners = _per_sample_votes(model, X)
        np.testing.assert_array_equal(
            votes.sum(axis=1), np.full(len(X), len(margins))
        )
        np.testing.assert_array_equal(
            pairwise_vote(
                sorted(model._machines), margins > 0, margins,
                len(model.classes_),
            ),
            winners,
        )
        np.testing.assert_array_equal(
            model.predict(X), model.classes_[winners]
        )
