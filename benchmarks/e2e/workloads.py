"""The four benchmark workloads, driven only through the public library API.

Each workload is built from ``(seed, quick)``: the seed makes every input,
and ``quick`` shrinks the sizes for the self-test (never for measurement).
``setup()`` does the untimed preparation; ``op(i)`` is one timed,
closed-loop operation and returns an :class:`Outcome` that the harness
checks.  The same ``(seed, i)`` always yields the same outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro import Acquisition, SideChannelDisassembler
from repro.core.hierarchy import LevelModel
from repro.experiments import endtoend
from repro.experiments.configs import register_config, stationary_config
from repro.experiments.scales import SMOKE
from repro.experiments.workloads import (
    GroupSampler,
    capture_group_set,
    group_classes,
    group_pool,
)
from repro.isa import REGISTRY
from repro.isa.groups import group_of
from repro.ml import LDA, QDA
from repro.power.acquisition import random_instance
from repro.power.dataset import TraceSet
from repro.power.faults import FaultInjector


@dataclass
class Outcome:
    """What one timed operation produced.

    ``sr`` holds recognition rates in percent, keyed by level (``group``,
    ``opcode``, ``rd``, ``rr``, ``combined``, ``mean``).  ``key`` names the
    input, so a repeated input can be checked for an identical ``sr``.
    """

    key: int
    windows: int
    sr: Dict[str, float]
    counts: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def canonical(key: str) -> str:
    """Alias-free class key (``SEC`` and ``BSET 0`` are one encoding)."""
    spec = REGISTRY.get(key)
    return key if spec is None else (spec.alias_of or spec.key)


def _pct(hits) -> float:
    return 100.0 * float(np.mean(hits)) if len(hits) else 0.0


#: SR floor under ``quick``: tiny templates are only checked for sanity.
QUICK_FLOOR = 25.0


def _floor(outcome: Outcome, level: str, floor: float, quick: bool) -> None:
    if quick:
        floor = min(floor, QUICK_FLOOR)
    if outcome.sr[level] < floor:
        outcome.problems.append(
            f"{level} SR {outcome.sr[level]:.2f} % is below the {floor} % floor"
        )


def _unresolved(keys) -> int:
    """Windows answered ``??`` (abstained) or ``G<n>?`` (group only)."""
    return sum(1 for k in keys if k.endswith("?"))


def _group_set(acq: Acquisition, groups, n: int, n_programs: int) -> TraceSet:
    """Group-labelled training set restricted to ``groups``."""
    names = tuple(f"G{g}" for g in groups)
    windows, labels, pids = [], [], []
    for code, group in enumerate(groups):
        sampler = GroupSampler(group_pool(group))
        w, p = acq.capture_class(
            sampler.pool[0], n, n_programs,
            label_override=names[code], target_sampler=sampler,
        )
        windows.append(w)
        labels.extend([code] * len(w))
        pids.append(p)
    return TraceSet(
        traces=np.concatenate(windows), labels=np.array(labels),
        label_names=names, program_ids=np.concatenate(pids),
    )


class Workload:
    """Interface: ``setup()`` untimed, then ``op(i)`` per timed operation."""

    name = ""
    #: Operations that make up one traced rep.
    trace_ops = 1
    #: Capture worker processes of the timed operation.
    n_jobs = 1

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = int(seed)
        self.quick = quick

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> Outcome:
        raise NotImplementedError


class Profile(Workload):
    """The canonical paper run: capture, fit 11 levels, compile, score."""

    name = "profile"

    #: Warm-up size; also the op size under ``quick``.
    TINY = SMOKE.with_overrides(
        name="tiny", n_train_per_class=30, n_test_per_class=10,
        n_programs=2, registers=(0, 16), classes_per_group_cap=2,
    )

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        base = self.TINY if quick else SMOKE
        self.scale = base.with_overrides(seed=self.seed, n_jobs=1)
        # endtoend captures every class of its three levels: 8 groups, the
        # level-2 classes of each group, and Rd and Rr per register.
        per_class = self.scale.n_train_per_class + self.scale.n_test_per_class
        n_classes = (
            8
            + sum(len(group_classes(g, self.scale)) for g in range(1, 9))
            + 2 * len(self.scale.registers)
        )
        self.windows = per_class * n_classes

    def setup(self) -> None:
        # Imports, CWT operators and BLAS warm up on a tiny run.
        endtoend.run(self.TINY.with_overrides(seed=self.seed, n_jobs=1))

    def op(self, i: int) -> Outcome:
        table = endtoend.run(self.scale)
        rows = {row["level"]: row["SR (%)"] for row in table.rows}
        out = Outcome(
            key=0,
            windows=self.windows,
            sr={
                "group": rows["groups (level 1)"],
                "opcode": rows["opcode end-to-end"],
                "rd": rows["Rd register"],
                "rr": rows["Rr register"],
                "combined": rows["combined (opcode x Rd x Rr)"],
            },
        )
        _floor(out, "combined", 80.0, self.quick)
        _floor(out, "group", 95.0, self.quick)
        return out


class Firmware(Workload):
    """Deployment: capture a straight-line program, then disassemble it."""

    name = "firmware"
    trace_ops = 16
    GROUPS = (1, 2, 3, 6)

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.scale = (Profile.TINY if quick else SMOKE).with_overrides(
            seed=self.seed
        )
        self.n_programs, self.body, self.repeats = (
            (4, 32, 8) if quick else (128, 64, 24)
        )

    def setup(self) -> None:
        scale = self.scale
        n, files = scale.n_train_per_class, scale.n_programs
        self.acq = Acquisition(seed=self.seed)
        dis = SideChannelDisassembler(
            stationary_config(scale.components(43)), classifier_factory=QDA
        )
        dis.fit_group_level(capture_group_set(self.acq, n, files))
        for group in range(1, 9):
            dis.fit_instruction_level(
                group,
                self.acq.capture_instruction_set(
                    group_classes(group, scale), n, files
                ),
            )
        registers = register_config(scale.components(45))
        for role in ("Rd", "Rr"):
            dis.fit_register_level(
                role,
                self.acq.capture_register_set(role, scale.registers, n, files),
                feature_config=registers,
            )
        dis.compile()
        self.acq.reference_window()
        self.dis = dis
        self.trained = {
            canonical(k) for g in range(1, 9) for k in group_classes(g, scale)
        }
        classes = [k for g in self.GROUPS for k in group_classes(g, scale)]
        rng = np.random.default_rng([self.seed, 6])
        self.programs = []
        for _ in range(self.n_programs):
            body = []
            for address in range(self.body):
                key = classes[int(rng.integers(len(classes)))]
                body.extend(random_instance(key, rng, address).encode())
            # A tuple of opcode words: capture_program seeds from hash(),
            # which is stable across processes only for non-text input.
            self.programs.append(tuple(body) * self.repeats)

    def op(self, i: int) -> Outcome:
        index = i % len(self.programs)
        words = self.programs[index]
        capture = self.acq.capture_program(words)
        decoded = self.dis.disassemble(capture.windows, adapt=False)
        truth = [e.instruction.key for e in capture.events]
        scored = [
            (d, t) for d, t in zip(decoded, truth) if canonical(t) in self.trained
        ]
        out = Outcome(
            key=index,
            windows=len(capture.windows),
            sr={
                "opcode": _pct(
                    [canonical(d.key) == canonical(t) for d, t in scored]
                ),
                "group": _pct([d.group == group_of(t) for d, t in scored]),
            },
            counts={"abstained": _unresolved([d.key for d in decoded])},
        )
        if not len(capture.windows) == len(capture.events) == len(words):
            out.problems.append(
                f"{len(capture.windows)} windows for {len(capture.events)} "
                f"events of a {len(words)}-word straight-line program"
            )
        _floor(out, "opcode", 25.0, self.quick)
        return out


class Sweep(Workload):
    """Refit a 12-config grid on fixed captures (Fig. 5/6, ablations)."""

    name = "sweep"
    THRESHOLDS = ("auto:0.9", "auto:0.5", 0.005)
    CLASSIFIERS = (("QDA", QDA), ("LDA", LDA))

    def setup(self) -> None:
        n, files = (40, 2) if self.quick else (160, 4)
        acq = Acquisition(seed=self.seed)
        rng = np.random.default_rng([self.seed, 5])
        self.sets = {}
        for name, full in (
            ("groups", capture_group_set(acq, n, files)),
            ("G1", acq.capture_instruction_set(
                group_classes(1, SMOKE), n, files
            )),
        ):
            self.sets[name] = full.split_random(0.8, rng)

    def op(self, i: int) -> Outcome:
        scores = {}
        for set_name, (train, test) in self.sets.items():
            for threshold in self.THRESHOLDS:
                config = stationary_config(25).with_overrides(
                    kl_threshold=threshold
                )
                for clf_name, factory in self.CLASSIFIERS:
                    model = LevelModel.train(train, config, factory)
                    scores[set_name, threshold, clf_name] = (
                        100.0 * model.score(test)
                    )
        out = Outcome(
            key=0,
            windows=sum(len(train) for train, _ in self.sets.values())
            * len(self.THRESHOLDS) * len(self.CLASSIFIERS),
            sr={
                "mean": float(np.mean(list(scores.values()))),
                "group": float(np.mean(
                    [v for k, v in scores.items() if k[0] == "groups"]
                )),
            },
        )
        _floor(out, "mean", 90.0, self.quick)
        return out


class Faulty(Workload):
    """Capture under injected faults on the pool, screen, then classify."""

    name = "faulty"
    GROUPS = (1, 2)
    n_jobs = 2

    def setup(self) -> None:
        scale = Profile.TINY if self.quick else SMOKE
        n, files = scale.n_train_per_class, scale.n_programs
        acq = Acquisition(seed=self.seed)
        dis = SideChannelDisassembler(
            stationary_config(scale.components(43)), classifier_factory=QDA
        )
        dis.fit_group_level(_group_set(acq, self.GROUPS, n, files))
        self.keys = []
        for group in self.GROUPS:
            keys = group_classes(group, scale)
            dis.fit_instruction_level(
                group, acq.capture_instruction_set(keys, n, files)
            )
            self.keys.extend(keys)
        dis.compile()
        self.dis = dis
        self.per_class, self.files = (80, 8) if self.quick else (320, 16)

    def op(self, i: int) -> Outcome:
        acq = Acquisition(
            seed=self.seed + 9001,
            n_jobs=self.n_jobs,
            faults=FaultInjector(rate=0.15),
            screener=True,
        )
        test = acq.capture_instruction_set(self.keys, self.per_class, self.files)
        groups = self.dis.predict_groups(test.traces)
        keys = self.dis.predict_instructions(test.traces, groups)
        truth = [test.label_names[c] for c in test.labels]
        captured = kept = quarantined = retried = 0
        out = Outcome(key=0, windows=0, sr={})
        for label, stats in acq.screening_stats.items():
            if stats.n_kept + stats.n_quarantined != stats.n_captured:
                out.problems.append(
                    f"{label}: kept {stats.n_kept} + quarantined "
                    f"{stats.n_quarantined} != captured {stats.n_captured}"
                )
            captured += stats.n_captured
            kept += stats.n_kept
            quarantined += stats.n_quarantined
            retried += stats.n_retried
        if kept != len(test.traces):
            out.problems.append(
                f"{len(test.traces)} windows reached inference, {kept} kept"
            )
        out.windows = captured
        out.sr = {
            "opcode": _pct(
                [canonical(p) == canonical(t) for p, t in zip(keys, truth)]
            ),
            "group": _pct([g == group_of(t) for g, t in zip(groups, truth)]),
        }
        out.counts = {
            "captured": captured,
            "quarantined": quarantined,
            "retried": retried,
            "abstained": _unresolved(keys),
        }
        _floor(out, "opcode", 70.0, self.quick)
        return out


WORKLOADS = {w.name: w for w in (Profile, Firmware, Sweep, Faulty)}
