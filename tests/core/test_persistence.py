"""Disassembler template persistence tests."""

import io
import os
import pickle

import numpy as np
import pytest

from repro.core import SideChannelDisassembler
from repro.dsp.cwt import get_cwt
from repro.features import FeatureConfig
from repro.features.pipeline import compute_class_stats
from repro.ml import QDA
from repro.power import Acquisition
from tests.oracles import dnvp_pair_selections

FAST = FeatureConfig(kl_threshold="auto:0.9", top_k=5, n_components=8)


@pytest.fixture(scope="module")
def fitted():
    acq = Acquisition(seed=81)
    dis = SideChannelDisassembler(FAST, classifier_factory=QDA)
    train = acq.capture_instruction_set(["ADD", "EOR", "LDS"], 40, 2)
    dis.fit_instruction_level(1, train)
    return dis, train


class TestPersistence:
    def test_round_trip_predictions_identical(self, fitted, tmp_path):
        dis, train = fitted
        path = tmp_path / "templates.pkl"
        dis.save(path)
        loaded = SideChannelDisassembler.load(path)
        original = dis.instruction_models[1].predict(train.traces[:20])
        restored = loaded.instruction_models[1].predict(train.traces[:20])
        np.testing.assert_array_equal(original, restored)

    def test_config_preserved(self, fitted, tmp_path):
        dis, _ = fitted
        path = tmp_path / "templates.pkl"
        dis.save(path)
        loaded = SideChannelDisassembler.load(path)
        assert loaded.feature_config == dis.feature_config

    def test_version_mismatch_rejected(self, fitted, tmp_path):
        dis, _ = fitted
        path = tmp_path / "templates.pkl"
        dis.save(path)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = "0.0.0"
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match="re-train"):
            SideChannelDisassembler.load(path)


def _arrays_in(payload):
    """Every ndarray pickling ``payload`` writes, as the pickler meets it."""
    arrays = []

    class Walker(pickle.Pickler):
        def persistent_id(self, obj):
            if isinstance(obj, np.ndarray):
                arrays.append(obj)
            return None

    Walker(io.BytesIO()).dump(payload)
    return arrays


class TestLeanArtifact:
    """A saved level holds what inference reads, no time-frequency plane."""

    def test_no_time_frequency_plane_is_saved(self, fitted, monkeypatch):
        dis, train = fitted
        dis.compile()
        # Walk the payload as ``save`` hands it to pickle: loading would
        # already drop what ``__setstate__`` drops.
        saved = []
        monkeypatch.setattr(pickle, "dump", lambda obj, _: saved.append(obj))
        dis.save(os.devnull)
        plane = (FAST.cwt.n_scales, train.n_samples)
        arrays = _arrays_in(saved[0])
        assert arrays, "the walk saw no array at all"
        shapes = [a.shape for a in arrays]
        assert not [s for s in shapes if s[-2:] == plane], shapes

    def test_selector_with_pair_selections_loads_lean(self, fitted, tmp_path):
        dis, train = fitted
        path = tmp_path / "templates.pkl"
        dis.save(path)
        lean_size = path.stat().st_size
        payload = pickle.loads(path.read_bytes())
        selector = payload["instruction_models"][1].pipeline.selector
        # An artifact of the earlier layout: every pair's full record.
        stats = compute_class_stats(
            train.traces, train.labels, train.program_ids, train.label_names,
            get_cwt(train.n_samples, FAST.cwt),
        )
        selector.pair_selections = dnvp_pair_selections(selector, stats)
        assert {
            (sel.class_a, sel.class_b): sel.points
            for sel in selector.pair_selections
        } == selector.pair_points
        path.write_bytes(pickle.dumps(payload))
        # Three pairs, each with a float64 field and three bool masks.
        assert path.stat().st_size > lean_size + 3 * stats["ADD"].mean.nbytes

        loaded = SideChannelDisassembler.load(path)
        model = loaded.instruction_models[1]
        original = dis.instruction_models[1]
        assert not hasattr(model.pipeline.selector, "pair_selections")
        assert model.pipeline.selector.points == original.pipeline.points
        assert (
            model.pipeline.selector.pair_points
            == original.pipeline.selector.pair_points
        )
        windows = train.traces[:20]
        np.testing.assert_array_equal(
            model.predict(windows), original.predict(windows)
        )
