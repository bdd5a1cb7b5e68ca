"""Ablations of the design choices DESIGN.md calls out.

* time-frequency (CWT) features vs raw time-domain samples;
* KL/DNVP selection vs naive variance ranking vs no selection;
* hierarchical vs flat classification (accuracy and classifier count).
"""

from __future__ import annotations

import time
from typing import List

# replint: disable-file=REP003 -- fit-time ablations report wall-clock
# measurements as experiment outputs; timing here is the point.
import numpy as np

from ..baselines.flat import FlatDisassembler
from ..core.hierarchy import SideChannelDisassembler
from ..obs import log
from ..dsp.cwt import get_cwt
from ..features.pca import PCA
from ..features.pipeline import (
    compute_class_stats,
    folded_point_matrix,
    point_values,
)
from ..isa.groups import classification_classes
from ..ml.discriminant import QDA
from ..power.acquisition import Acquisition
from ..power.dataset import TraceSet
from .checkpoint import checkpoint_store
from .configs import stationary_config
from .results import ResultTable
from .scales import get_scale
from .workloads import group_pool

__all__ = [
    "run_cwt_ablation",
    "run_hierarchy_ablation",
    "run_selection_ablation",
]


def run_cwt_ablation(scale="bench", checkpoint_dir=None) -> ResultTable:
    """CWT time-frequency features vs raw time-domain points."""
    scale = get_scale(scale)
    store = checkpoint_store(
        checkpoint_dir, experiment="ablation-cwt", scale=scale.name
    )
    acq = Acquisition(seed=scale.seed, n_jobs=scale.n_jobs)
    keys = classification_classes(1)
    fraction = scale.n_train_per_class / (
        scale.n_train_per_class + scale.n_test_per_class
    )

    def capture_stage():
        full = acq.capture_instruction_set(
            keys, scale.n_train_per_class + scale.n_test_per_class,
            scale.n_programs,
        )
        return full.split_random(
            fraction, np.random.default_rng(scale.seed + 11)
        )

    train, test = store.stage("capture", capture_stage)
    log.debug(f"ablation-cwt: captured {len(train.traces)} training traces")
    table = ResultTable(
        title="Ablation: CWT vs time-domain features (group-1, QDA)",
        columns=["features", "SR (%)", "n feature points"],
        notes=f"scale={scale.name}; trigger jitter is on (CWT's advantage)",
    )
    for label, use_cwt in (("CWT (50 scales)", True), ("raw time domain", False)):

        def fit_stage(use_cwt=use_cwt):
            config = stationary_config(scale.components(43)).with_overrides(
                use_cwt=use_cwt
            )
            dis = SideChannelDisassembler(config, classifier_factory=QDA)
            model = dis.fit_instruction_level(1, train)
            return model.score(test) * 100.0, model.pipeline.n_points

        sr, n_points = store.stage(f"fit-{use_cwt}", fit_stage)
        log.debug(f"ablation-cwt: {label} -> SR {sr:.2f} %")
        table.add_row(
            features=label,
            **{"SR (%)": sr, "n feature points": n_points},
        )
    return table


def run_selection_ablation(scale="bench", checkpoint_dir=None) -> ResultTable:
    """DNVP selection vs variance ranking vs peaks-only selection."""
    scale = get_scale(scale)
    store = checkpoint_store(
        checkpoint_dir, experiment="ablation-selection", scale=scale.name
    )
    acq = Acquisition(seed=scale.seed, n_jobs=scale.n_jobs)
    keys = classification_classes(1)
    fraction = scale.n_train_per_class / (
        scale.n_train_per_class + scale.n_test_per_class
    )

    def capture_stage():
        full = acq.capture_instruction_set(
            keys, scale.n_train_per_class + scale.n_test_per_class,
            scale.n_programs,
        )
        return full.split_random(
            fraction, np.random.default_rng(scale.seed + 12)
        )

    train, test = store.stage("capture", capture_stage)
    log.debug(
        f"ablation-selection: captured {len(train.traces)} training traces"
    )

    table = ResultTable(
        title="Ablation: feature selection strategy (group-1, QDA)",
        columns=["selection", "SR (%)", "n feature points"],
        notes=f"scale={scale.name}",
    )
    for label, threshold in (
        ("KL DNVP (within-filtered)", "auto:0.9"),
        ("KL peaks only (no within filter)", float("inf")),
    ):

        def fit_stage(threshold=threshold):
            config = stationary_config(scale.components(43)).with_overrides(
                kl_threshold=threshold
            )
            dis = SideChannelDisassembler(config, classifier_factory=QDA)
            model = dis.fit_instruction_level(1, train)
            return model.score(test) * 100.0, model.pipeline.n_points

        sr, n_points = store.stage(f"fit-{threshold}", fit_stage)
        table.add_row(
            selection=label,
            **{"SR (%)": sr, "n feature points": n_points},
        )

    def variance_stage():
        # Variance ranking baseline: top-N plane points by pooled variance.
        cwt = get_cwt(train.n_samples)
        variance = compute_class_stats(
            train.traces,
            np.zeros(len(train.traces), dtype=np.int64),
            train.program_ids,
            ["all"],
            cwt,
        )["all"].var
        flat = np.argsort(variance, axis=None)[::-1][:200]
        points = [tuple(np.unravel_index(i, variance.shape)) for i in flat]
        matrix = folded_point_matrix(cwt, points)
        train_vals = point_values(train.traces, points, cwt, matrix)
        test_vals = point_values(test.traces, points, cwt, matrix)
        mean, std = train_vals.mean(axis=0), train_vals.std(axis=0)
        std[std == 0] = 1.0
        pca = PCA(n_components=scale.components(43))
        clf = QDA()
        clf.fit(pca.fit_transform((train_vals - mean) / std), train.labels)
        sr = float(
            np.mean(
                clf.predict(pca.transform((test_vals - mean) / std))
                == test.labels
            )
        )
        return sr * 100.0, len(points)

    sr, n_points = store.stage("variance", variance_stage)
    table.add_row(
        selection="variance ranking (no KL)",
        **{"SR (%)": sr, "n feature points": n_points},
    )
    return table


def run_hierarchy_ablation(scale="bench", checkpoint_dir=None) -> ResultTable:
    """Hierarchical vs flat classification: SR, machines, wall time."""
    scale = get_scale(scale)
    store = checkpoint_store(
        checkpoint_dir, experiment="ablation-hierarchy", scale=scale.name
    )
    acq = Acquisition(seed=scale.seed, n_jobs=scale.n_jobs)
    # Three classes per group: a 24-way problem spanning all groups.
    keys: List[str] = []
    for group in range(1, 9):
        keys.extend(group_pool(group)[:3])
    fraction = scale.n_train_per_class / (
        scale.n_train_per_class + scale.n_test_per_class
    )

    def capture_stage():
        full = acq.capture_instruction_set(
            keys, scale.n_train_per_class + scale.n_test_per_class,
            scale.n_programs,
        )
        return full.split_random(
            fraction, np.random.default_rng(scale.seed + 13)
        )

    train, test = store.stage("capture", capture_stage)
    log.debug(
        f"ablation-hierarchy: captured {len(train.traces)} training traces"
    )

    table = ResultTable(
        title="Ablation: hierarchical vs flat classification (QDA)",
        columns=["architecture", "SR (%)", "1v1 machines (SVM equivalent)",
                 "fit time (s)"],
        paper_reference={"flat 112-way": 6216, "hierarchical worst case": 218},
        notes=f"scale={scale.name}; {len(keys)}-way problem",
    )

    def flat_stage():
        t0 = time.perf_counter()
        flat_model = FlatDisassembler(
            stationary_config(scale.components(43)), classifier_factory=QDA
        )
        flat_model.fit(train)
        flat_time = time.perf_counter() - t0
        return (
            flat_model.score(test) * 100.0,
            flat_model.n_binary_classifiers,
            flat_time,
        )

    sr, machines, fit_time = store.stage("flat", flat_stage)
    table.add_row(
        architecture="flat",
        **{
            "SR (%)": sr,
            "1v1 machines (SVM equivalent)": machines,
            "fit time (s)": fit_time,
        },
    )

    def hierarchical_stage():
        # Hierarchical: level 1 on groups, level 2 within groups.
        t0 = time.perf_counter()
        dis = SideChannelDisassembler(
            stationary_config(scale.components(43)), classifier_factory=QDA
        )
        group_labels = np.array(
            [_group_code(train.label_names[c]) for c in train.labels]
        )
        group_set = TraceSet(
            traces=train.traces,
            labels=group_labels,
            label_names=tuple(f"G{g}" for g in range(1, 9)),
            program_ids=train.program_ids,
            device=train.device,
        )
        dis.fit_group_level(group_set)
        for group in range(1, 9):
            member_keys = [k for k in keys if _group_code(k) == group - 1]
            codes = [train.label_names.index(k) for k in member_keys]
            mask = np.isin(train.labels, codes)
            subset = TraceSet(
                traces=train.traces[mask],
                labels=np.array(
                    [member_keys.index(train.label_names[c])
                     for c in train.labels[mask]]
                ),
                label_names=tuple(member_keys),
                program_ids=train.program_ids[mask],
                device=train.device,
            )
            dis.fit_instruction_level(group, subset)
        hier_time = time.perf_counter() - t0
        predicted = dis.predict_instructions(test.traces)
        truth = [test.label_names[c] for c in test.labels]
        sr = float(np.mean([p == t for p, t in zip(predicted, truth)]))
        return sr * 100.0, dis.n_binary_classifiers_hierarchical, hier_time

    sr, machines, fit_time = store.stage("hierarchical", hierarchical_stage)
    table.add_row(
        architecture="hierarchical",
        **{
            "SR (%)": sr,
            "1v1 machines (SVM equivalent)": machines,
            "fit time (s)": fit_time,
        },
    )
    return table


def _group_code(key: str) -> int:
    from ..isa.groups import group_of

    return group_of(key) - 1
