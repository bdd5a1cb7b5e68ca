"""Fault study: disassembly accuracy under injected capture faults.

The paper's pipeline (and this reproduction's other experiments) profile
and deploy on pristine captures.  Real campaigns are not pristine — see
:mod:`repro.power.faults` for the defect families — so this runner
measures what each robustness layer actually buys:

* **raw**: faults hit the test captures and nothing defends; corrupt
  windows become silent mispredictions (the optimistic-reproduction
  failure mode);
* **screened**: acquisition-side quality screening + capped re-capture
  (:mod:`repro.power.quality`) repairs or quarantines corrupt windows
  before inference — accuracy should return to within ~2 points of the
  clean baseline;
* **abstain**: no screening; inference defends itself instead — batch
  adaptation is disabled (corrupt windows poison batch normalization
  statistics, so a batch that cannot be trusted must not be adapted to;
  this is the dominant raw-mode failure amplifier) and windows below a
  hierarchy-confidence threshold report ``"??"`` rather than a guess.
  The right trade when re-capture is impossible (a single hostile trace
  of deployed firmware).

A finding this study documents: posterior-based abstention catches
*between-class ambiguity* but not out-of-distribution corruption — QDA
posteriors are relative fits and saturate near 1.0 even for windows far
from every template, so coverage barely drops under faults.  The
effective defenses are the acquisition screen (repairs/quarantines) and
non-adaptive normalization (contains the blast radius); the abstain rows
quantify exactly how little the confidence gate adds on top.

Templates are trained once on clean captures (groups 1-2 of Table 2 plus
their instruction levels); test sets are captured by a separate
acquisition seed, per fault rate, with identical clean content across
modes — the same windows get the same corruption, so the modes differ
only in the defense.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.hierarchy import SideChannelDisassembler
from ..isa import REGISTRY
from ..ml.discriminant import QDA
from ..power.acquisition import Acquisition
from ..power.dataset import TraceSet
from ..power.faults import FaultInjector
from ..power.quality import ScreeningStats
from .checkpoint import checkpoint_store
from .configs import stationary_config
from .results import ResultTable
from .scales import get_scale
from .workloads import GroupSampler, group_classes, group_pool

__all__ = ["ABSTAIN_THRESHOLD", "FAULT_RATES", "run"]

#: Per-window fault probabilities swept by the study (documented default
#: operating points; ``benchmarks/bench_robustness.py`` asserts the
#: screened mode stays within 2 SR points of clean at both).
FAULT_RATES = (0.05, 0.15)

#: Hierarchy-confidence floor for the abstain mode: the product of the
#: level-1 and level-2 posteriors must reach this or the window reports
#: ``"??"``.  Set high on purpose: QDA posteriors saturate, so only a
#: near-certainty bar abstains on anything at all (see module docstring).
ABSTAIN_THRESHOLD = 0.999

#: Groups profiled by the study (full 8-group hierarchy is the endtoend
#: experiment's job; two groups keep the chaos sweep minutes-scale).
_GROUPS = (1, 2)


def _canonical(key: str) -> str:
    spec = REGISTRY.get(key)
    if spec is None:
        return key
    return spec.alias_of or spec.key


def _merged_stats(acq: Acquisition) -> ScreeningStats:
    merged = ScreeningStats()
    for stats in acq.screening_stats.values():
        merged.merge(stats)
    return merged


def _train(scale) -> SideChannelDisassembler:
    """Fit the group level (groups 1-2) + both instruction levels, clean."""
    acq = Acquisition(seed=scale.seed, n_jobs=scale.n_jobs)
    dis = SideChannelDisassembler(
        stationary_config(scale.components(43)), classifier_factory=QDA
    )
    names = tuple(f"G{g}" for g in _GROUPS)
    traces: List[np.ndarray] = []
    labels: List[int] = []
    program_ids: List[np.ndarray] = []
    for code, group in enumerate(_GROUPS):
        sampler = GroupSampler(group_pool(group))
        windows, pids = acq.capture_class(
            sampler.pool[0],
            scale.n_train_per_class,
            scale.n_programs,
            label_override=names[code],
            target_sampler=sampler,
        )
        traces.append(windows)
        labels.extend([code] * len(windows))
        program_ids.append(pids)
    group_set = TraceSet(
        traces=np.concatenate(traces),
        labels=np.array(labels),
        label_names=names,
        program_ids=np.concatenate(program_ids),
        device=acq.device.name,
        meta={"kind": "groups"},
    )
    dis.fit_group_level(group_set)
    for group in _GROUPS:
        level_set = acq.capture_instruction_set(
            group_classes(group, scale),
            scale.n_train_per_class,
            scale.n_programs,
        )
        dis.fit_instruction_level(group, level_set)
    return dis


def _capture_test(
    scale, rate: float, screened: bool
) -> Tuple[TraceSet, ScreeningStats]:
    """Capture the shared test set under one fault rate / defense mode."""
    keys: List[str] = []
    for group in _GROUPS:
        keys.extend(group_classes(group, scale))
    faults = FaultInjector(rate=rate) if rate > 0.0 else None
    acq = Acquisition(
        seed=scale.seed + 9001,
        n_jobs=scale.n_jobs,
        faults=faults,
        screener=screened if faults is not None else False,
    )
    test = acq.capture_instruction_set(
        keys, scale.n_test_per_class, max(2, scale.n_programs // 2)
    )
    return test, _merged_stats(acq)


def _score(
    dis: SideChannelDisassembler,
    test: TraceSet,
    abstain_threshold: Optional[float] = None,
) -> Tuple[float, float]:
    """Canonical-match SR over covered windows, plus coverage, both in %."""
    truth = [_canonical(test.label_names[c]) for c in test.labels]
    if abstain_threshold is None:
        predicted = dis.predict_instructions(test.traces)
        hits = [
            _canonical(p) == t for p, t in zip(predicted, truth)
        ]
        return float(np.mean(hits)) * 100.0, 100.0
    # The abstain defense does not trust the (possibly corrupt) batch:
    # adaptation off, then gate on hierarchy confidence.
    keys, confidence = dis.predict_instructions_with_confidence(
        test.traces, adapt=False
    )
    covered = confidence >= abstain_threshold
    if not covered.any():
        return 0.0, 0.0
    hits = [
        _canonical(keys[i]) == truth[i] for i in np.flatnonzero(covered)
    ]
    return float(np.mean(hits)) * 100.0, float(np.mean(covered)) * 100.0


def run(scale="bench", checkpoint_dir=None) -> ResultTable:
    """Sweep fault rates across the three defense modes.

    Returns a table with one clean-baseline row plus, per fault rate,
    the raw / screened / abstain rows; ``SR (%)`` is canonical-match
    accuracy over covered windows, ``coverage (%)`` the fraction the
    mode answered for (quarantine and abstention both reduce it), and
    the quarantined/retried columns expose the screening layer's work.
    """
    scale = get_scale(scale)
    store = checkpoint_store(
        checkpoint_dir, experiment="robustness", scale=scale.name
    )
    dis = store.stage("train", lambda: _train(scale))

    table = ResultTable(
        title="Robustness: accuracy vs capture corruption (groups 1-2, QDA)",
        columns=[
            "fault rate", "mode", "SR (%)", "coverage (%)",
            "quarantined (%)", "retried (%)",
        ],
        notes=(
            f"scale={scale.name}; six-family fault mix; "
            f"abstain threshold {ABSTAIN_THRESHOLD}"
        ),
    )

    def evaluate(
        rate: float, mode: str, screened: bool, threshold: Optional[float]
    ) -> Dict[str, object]:
        test, stats = _capture_test(scale, rate, screened)
        sr, coverage = _score(dis, test, threshold)
        captured = max(stats.n_captured, 1)
        quarantine_pct = 100.0 * stats.n_quarantined / captured
        retried_pct = 100.0 * stats.n_retried / captured
        # Quarantine costs coverage too: windows the screen discarded
        # never reach inference.
        if screened and stats.n_captured:
            coverage *= stats.n_kept / stats.n_captured
        return {
            "fault rate": rate,
            "mode": mode,
            "SR (%)": sr,
            "coverage (%)": coverage,
            "quarantined (%)": quarantine_pct,
            "retried (%)": retried_pct,
        }

    table.add_row(
        **store.stage("clean", lambda: evaluate(0.0, "clean", False, None))
    )
    for rate in FAULT_RATES:
        for mode, screened, threshold in (
            ("raw", False, None),
            ("screened", True, None),
            ("abstain", False, ABSTAIN_THRESHOLD),
        ):
            row = store.stage(
                f"rate-{rate}-{mode}",
                lambda: evaluate(rate, mode, screened, threshold),
            )
            table.add_row(**row)
    return table
