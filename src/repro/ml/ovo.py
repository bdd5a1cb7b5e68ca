"""One-vs-one majority voting (paper §5.4, Eq. 2-3).

``K(K-1)/2`` binary machines each vote for one class of their pair, and
the class with most votes wins.  Ties go to the class with the larger
summed signed margin, squashed by ``tanh`` and scaled by ``1e-9`` so it
can never outweigh a vote.  ``SVC`` and
``repro.core.voting.PairwiseVotingClassifier`` both reduce their pair
outputs through :func:`pairwise_vote`; the ``voting_predict`` test oracle
is the same per-pair loop written out by hand.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["pairwise_vote"]


def pairwise_vote(
    pairs: Sequence[Tuple[int, int]],
    a_wins: np.ndarray,
    margins: np.ndarray,
    n_classes: int,
) -> np.ndarray:
    """Winning class index per sample (Eq. 3 with a margin tie-break).

    Args:
        pairs: ``(a, b)`` class indices of each binary machine.
        a_wins: ``(n_pairs, n)`` booleans, true where the machine of that
            row voted for its ``a``.
        margins: ``(n_pairs, n)`` signed margins, positive favouring
            ``a``; zero rows for machines without one.
        n_classes: number of classes the indices range over.
    """
    n = a_wins.shape[1]
    votes = np.zeros((n, n_classes))
    scores = np.zeros((n, n_classes))
    for (a, b), wins, margin in zip(pairs, a_wins, margins):
        votes[wins, a] += 1
        votes[~wins, b] += 1
        scores[:, a] += margin
        scores[:, b] -= margin
    return np.argmax(votes + 1e-9 * np.tanh(scores), axis=1)
