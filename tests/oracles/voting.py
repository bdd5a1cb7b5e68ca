"""Majority-voting oracles (paper §5.4): pair-by-pair selection and votes."""

import itertools

import numpy as np

from repro.dsp.cwt import get_cwt
from repro.features.pipeline import compute_class_stats
from repro.features.selection import select_pair_points

from .kl import within_class_kl


def voting_pair_points(voting, trace_set):
    """Per-pair DNVP points :meth:`PairwiseVotingClassifier.fit` should pick.

    Loop-based within fields and one :func:`select_pair_points` call per
    class-code pair; returns ``{(code_a, code_b): points}``.
    """
    cfg = voting.feature_config
    names = trace_set.label_names
    stats = compute_class_stats(
        trace_set.traces,
        trace_set.labels,
        trace_set.program_ids,
        names,
        get_cwt(trace_set.n_samples, cfg.cwt) if cfg.use_cwt else None,
    )
    within = {name: within_class_kl(stats[name]) for name in names}
    return {
        (a, b): select_pair_points(
            stats[names[a]],
            stats[names[b]],
            kl_threshold=cfg.kl_threshold,
            top_k=voting.points_per_pair,
            class_a=names[a],
            class_b=names[b],
            within_a=within[names[a]],
            within_b=within[names[b]],
        ).points
        for a, b in itertools.combinations(range(len(names)), 2)
    }


def voting_predict(voting, windows):
    """Per-pair vote loop of :meth:`PairwiseVotingClassifier.predict`."""
    values = voting._point_values(np.asarray(windows))
    values = voting._normalize(values, fit=False)
    n_classes = len(voting.label_names)
    votes = np.zeros((len(values), n_classes))
    scores = np.zeros((len(values), n_classes))
    for pair in voting._pairs:
        projected = pair.pca.transform(values[:, pair.columns])
        winner_a = pair.classifier.predict(projected) == pair.code_a
        votes[winner_a, pair.code_a] += 1
        votes[~winner_a, pair.code_b] += 1
        if hasattr(pair.classifier, "predict_proba"):
            proba = pair.classifier.predict_proba(projected)
            column = list(pair.classifier.classes_).index(pair.code_a)
            soft = proba[:, column] - 0.5
            scores[:, pair.code_a] += soft
            scores[:, pair.code_b] -= soft
    ranking = votes + 1e-9 * np.tanh(scores)
    return np.argmax(ranking, axis=1)


def svc_predict(svc, X):
    """Per-pair vote loop of :meth:`repro.ml.svm.SVC.predict`."""
    X = np.asarray(X, dtype=np.float64)
    n_classes = len(svc.classes_)
    votes = np.zeros((len(X), n_classes))
    scores = np.zeros((len(X), n_classes))
    for (a, b), machine in svc._machines.items():
        decision = machine.decision_function(X)
        winner_a = decision > 0
        votes[winner_a, a] += 1
        votes[~winner_a, b] += 1
        scores[:, a] += decision
        scores[:, b] -= decision
    ranking = votes + 1e-9 * np.tanh(scores)
    return svc.classes_[np.argmax(ranking, axis=1)]
