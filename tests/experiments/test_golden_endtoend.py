"""Golden behaviour of the smoke ``endtoend`` run (the paper's pipeline).

Pins what the system *decides* on the canonical smoke run, so refactors
of any stage (capture, CWT, KL/DNVP selection, PCA, classifiers,
compilation) cannot quietly shift paper-level behaviour:

* the SR of every reported level, within 0.5 pp absolute;
* the unified DNVP point count of each of the 11 fitted levels, exactly;
* the number of pooled windows the hierarchy leaves unresolved
  (``??`` abstentions or ``G<n>?`` group-only answers), exactly.

Regenerate only for an intended behaviour change, and say so in the
change log.
"""

import pytest

from repro.core.hierarchy import LevelModel, SideChannelDisassembler
from repro.experiments import endtoend

#: SR (%) per result row of ``endtoend.run("smoke")``.
GOLDEN_SR = {
    "groups (level 1)": 99.48,
    "G1 instructions": 100.0,
    "G2 instructions": 100.0,
    "G3 instructions": 100.0,
    "G4 instructions": 100.0,
    "G5 instructions": 100.0,
    "G6 instructions": 100.0,
    "G7 instructions": 100.0,
    "G8 instructions": 100.0,
    "opcode end-to-end": 98.05,
    "Rd register": 98.96,
    "Rr register": 100.0,
    "combined (opcode x Rd x Rr)": 97.03,
}

#: The 11 levels ``endtoend.run`` fits, in fit order.
LEVELS = ("groups",) + tuple(f"G{g}" for g in range(1, 9)) + ("Rd", "Rr")

#: Unified DNVP points per level.
GOLDEN_POINTS = {
    "groups": 162,
    "G1": 41,
    "G2": 44,
    "G3": 45,
    "G4": 41,
    "G5": 44,
    "G6": 43,
    "G7": 42,
    "G8": 42,
    "Rd": 47,
    "Rr": 45,
}

#: Pooled level-2 answers ending in ``?``.
GOLDEN_UNRESOLVED = 0

SR_TOLERANCE_PP = 0.5


@pytest.fixture(scope="module")
def smoke_run():
    """One smoke ``endtoend`` run, recording per-level points and answers."""
    patcher = pytest.MonkeyPatch()
    points = []
    answers = []
    train = LevelModel.train.__func__
    predict_instructions = SideChannelDisassembler.predict_instructions

    def recording_train(cls, trace_set, *args, **kwargs):
        level = train(cls, trace_set, *args, **kwargs)
        points.append(level.pipeline.n_points)
        return level

    def recording_predict(self, *args, **kwargs):
        keys = predict_instructions(self, *args, **kwargs)
        answers.extend(keys)
        return keys

    patcher.setattr(LevelModel, "train", classmethod(recording_train))
    patcher.setattr(
        SideChannelDisassembler, "predict_instructions", recording_predict
    )
    try:
        table = endtoend.run("smoke")
    finally:
        patcher.undo()
    rows = {row["level"]: row["SR (%)"] for row in table.rows}
    return rows, points, answers


def test_sr_per_level(smoke_run):
    rows, _, _ = smoke_run
    assert set(rows) == set(GOLDEN_SR)
    for level, golden in GOLDEN_SR.items():
        assert rows[level] == pytest.approx(golden, abs=SR_TOLERANCE_PP), level


def test_unified_point_counts(smoke_run):
    _, points, _ = smoke_run
    assert len(points) == len(LEVELS)
    assert dict(zip(LEVELS, points)) == GOLDEN_POINTS


def test_unresolved_count(smoke_run):
    _, _, answers = smoke_run
    assert answers, "the pooled level-2 pass never ran"
    assert sum(1 for key in answers if key.endswith("?")) == GOLDEN_UNRESOLVED
