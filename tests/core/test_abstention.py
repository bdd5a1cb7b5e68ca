"""Confidence-gated abstention: the ladder, the gate, the sentinel."""

import numpy as np
import pytest

from repro.core import ABSTAIN_KEY, SideChannelDisassembler
from repro.core.hierarchy import _class_columns, _classifier_confidence
from repro.core.types import DisassembledInstruction
from repro.features import FeatureConfig


class _ProbaClassifier:
    classes_ = np.array([0, 1, 2])

    def predict_proba(self, features):
        return np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])


class _PairwiseDecisionClassifier:
    """SVM shape at three classes: one decision column per class pair."""

    classes_ = np.array([0, 1, 2])

    def decision_function(self, features):
        return np.array([[4.0, 0.0, -1.0], [0.0, 0.0, 2.0]])


class _BinaryMarginClassifier:
    classes_ = np.array([0, 1])

    def decision_function(self, features):
        return np.array([3.0, 0.0])


class _OpaqueClassifier:
    """Pairwise-voting shape: no proba, no per-class decision surface."""


class TestConfidenceLadder:
    def test_class_columns_maps_noncontiguous_codes(self):
        clf = _ProbaClassifier()
        clf.classes_ = np.array([2, 5, 9])
        np.testing.assert_array_equal(
            _class_columns(clf, np.array([5, 2, 9])), [1, 0, 2]
        )
        np.testing.assert_array_equal(
            _class_columns(object(), np.array([3, 0])), [3, 0]
        )

    def test_posterior_preferred(self):
        conf = _classifier_confidence(
            _ProbaClassifier(), np.zeros((2, 4)), np.array([0, 2])
        )
        np.testing.assert_allclose(conf, [0.7, 0.8])

    def test_pairwise_decision_surface_never_abstains(self):
        # ``n_pairs == n_classes`` at K = 3: the columns are pair margins,
        # not class scores, so no posterior is read off them.
        conf = _classifier_confidence(
            _PairwiseDecisionClassifier(), np.zeros((2, 4)), np.array([0, 2])
        )
        np.testing.assert_array_equal(conf, [1.0, 1.0])

    def test_binary_margin_fallback(self):
        conf = _classifier_confidence(
            _BinaryMarginClassifier(), np.zeros((2, 4)), np.array([1, 0])
        )
        assert conf[0] == pytest.approx(1.0 / (1.0 + np.exp(-3.0)))
        assert conf[1] == pytest.approx(0.5)

    def test_opaque_classifier_never_abstains(self):
        conf = _classifier_confidence(
            _OpaqueClassifier(), np.zeros((3, 4)), np.array([0, 1, 2])
        )
        np.testing.assert_array_equal(conf, [1.0, 1.0, 1.0])


def _stub_disassembler(groups, group_conf, keys, key_conf):
    """A disassembler whose two hierarchy levels are canned answers."""
    dis = SideChannelDisassembler(
        FeatureConfig(), classifier_factory=lambda: None
    )
    dis.predict_groups_with_confidence = lambda windows, adapt=None: (
        np.asarray(groups), np.asarray(group_conf, dtype=np.float64)
    )
    dis.predict_groups = lambda windows, adapt=None: np.asarray(groups)
    dis.predict_instructions_with_confidence = (
        lambda windows, g=None, gc=None, adapt=None: (
            list(keys),
            np.asarray(gc if gc is not None else group_conf)
            * np.asarray(key_conf, dtype=np.float64),
        )
    )
    dis.predict_instructions = (
        lambda windows, groups=None, adapt=None: list(keys)
    )
    return dis


class TestAbstention:
    def test_gate_splits_on_chained_confidence(self):
        dis = _stub_disassembler(
            groups=[1, 1, 5],
            group_conf=[0.99, 0.99, 0.6],
            keys=["ADD", "EOR", "LDS"],
            key_conf=[0.99, 0.5, 0.99],
        )
        out = dis.disassemble(np.zeros((3, 8)), abstain_threshold=0.9)
        assert [o.key for o in out] == ["ADD", ABSTAIN_KEY, ABSTAIN_KEY]
        assert out[0].confidence == pytest.approx(0.99 * 0.99)
        # Abstentions keep the routing evidence: group + confidence.
        assert out[1].abstained and out[1].group == 1
        assert out[2].confidence == pytest.approx(0.6 * 0.99)

    def test_no_threshold_never_abstains(self):
        dis = _stub_disassembler(
            groups=[1], group_conf=[0.01], keys=["ADD"], key_conf=[0.01]
        )
        out = dis.disassemble(np.zeros((1, 8)))
        assert out[0].key == "ADD"
        assert out[0].confidence is None
        assert not out[0].abstained


class TestAbstainRendering:
    def test_sentinel_renders_as_is(self):
        abstained = DisassembledInstruction(key=ABSTAIN_KEY, group=3)
        assert abstained.abstained
        assert abstained.text == ABSTAIN_KEY
        with pytest.raises(KeyError, match="abstained or group-only"):
            abstained.spec

    def test_group_placeholder_renders_as_is(self):
        partial = DisassembledInstruction(key="G5?", group=5)
        assert not partial.abstained
        assert partial.text == "G5?"
        with pytest.raises(KeyError):
            partial.spec

    def test_concrete_key_still_resolves(self):
        instr = DisassembledInstruction(key="ADD", group=1, rd=2, rr=3)
        assert instr.spec.key == "ADD"
        assert instr.text == "add r2, r3"
        assert not instr.abstained
