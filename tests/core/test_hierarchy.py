"""Integration tests of the hierarchical disassembler on simulated traces.

These are the slowest unit tests; they run at tiny trace budgets and only
check behavioural properties, not headline SRs (benchmarks do that).
"""

import numpy as np
import pytest

from repro.core import SideChannelDisassembler, csa_config
from repro.features import FeatureConfig
from repro.features.compiled import CompiledPipeline
from repro.ml import QDA
from repro.power import Acquisition
from tests.oracles import predict_instructions

FAST = FeatureConfig(kl_threshold="auto:0.9", top_k=5, n_components=10)


@pytest.fixture(scope="module")
def small_world():
    """Two-group, four-class world with register levels."""
    acq = Acquisition(seed=11)
    from repro.power.acquisition import random_instance
    from repro.power.dataset import TraceSet

    group_parts = []
    for code, (name, pool) in enumerate(
        (("G1", ["ADD", "EOR"]), ("G5", ["LDS", "ST_X"]))
    ):
        def sampler(rng, addr, _pool=pool):
            return random_instance(str(rng.choice(_pool)), rng, word_address=addr)

        w, p = acq.capture_class(
            pool[0], 60, 3, label_override=name, target_sampler=sampler
        )
        group_parts.append((w, code, p))
    group_set = TraceSet(
        traces=np.concatenate([w for w, _, _ in group_parts]),
        labels=np.concatenate(
            [np.full(len(w), c) for w, c, _ in group_parts]
        ),
        label_names=("G1", "G5"),
        program_ids=np.concatenate([p for _, _, p in group_parts]),
    )
    g1 = acq.capture_instruction_set(["ADD", "EOR"], 60, 3)
    g5 = acq.capture_instruction_set(["LDS", "ST_X"], 60, 3)
    rd = acq.capture_register_set("Rd", (2, 20), 60, 3)
    rr = acq.capture_register_set("Rr", (2, 20), 60, 3)
    dis = SideChannelDisassembler(FAST, classifier_factory=QDA)
    dis.fit_group_level(group_set)
    dis.fit_instruction_level(1, g1)
    dis.fit_instruction_level(5, g5)
    dis.fit_register_level("Rd", rd)
    dis.fit_register_level("Rr", rr)
    return acq, dis, g1, g5


class TestHierarchy:
    def test_group_prediction_values(self, small_world):
        acq, dis, g1, g5 = small_world
        groups = dis.predict_groups(g1.traces[:20])
        assert set(groups) <= {1, 5}

    def test_instruction_keys_within_group(self, small_world):
        acq, dis, g1, g5 = small_world
        keys = dis.predict_instructions(g1.traces[:20])
        assert set(keys) <= {"ADD", "EOR", "LDS", "ST_X"}

    def test_reasonable_accuracy(self, small_world):
        acq, dis, g1, g5 = small_world
        keys = dis.predict_instructions(g5.traces)
        truth = [g5.label_names[c] for c in g5.labels]
        accuracy = np.mean([k == t for k, t in zip(keys, truth)])
        assert accuracy > 0.8

    def test_disassemble_output_structure(self, small_world):
        acq, dis, g1, g5 = small_world
        out = dis.disassemble(g1.traces[:10])
        assert len(out) == 10
        for instr in out:
            assert instr.group in (1, 5)
            if instr.key in ("ADD", "EOR"):
                assert instr.rd is not None and instr.rr is not None
            if instr.key == "LDS":
                assert instr.rr is None  # single register operand

    def test_register_prediction_values(self, small_world):
        acq, dis, g1, g5 = small_world
        rd = dis.predict_register("Rd", g1.traces[:10])
        assert set(rd) <= {2, 20}

    def test_missing_level_reports_group(self, small_world):
        acq, dis, g1, g5 = small_world
        fresh = SideChannelDisassembler(FAST, classifier_factory=QDA)
        fresh.group_model = dis.group_model
        keys = fresh.predict_instructions(g1.traces[:5])
        assert all(k.endswith("?") for k in keys)

    def test_unfitted_errors(self):
        dis = SideChannelDisassembler(FAST)
        with pytest.raises(RuntimeError):
            dis.predict_groups(np.zeros((2, 315)))
        with pytest.raises(RuntimeError):
            dis.predict_register("Rd", np.zeros((2, 315)))

    def test_register_role_validated(self):
        dis = SideChannelDisassembler(FAST)
        with pytest.raises(ValueError):
            dis.fit_register_level("Rq", None)

    def test_classifier_counts(self, small_world):
        acq, dis, g1, g5 = small_world
        assert dis.n_binary_classifiers_hierarchical == 1 + 1  # C(2,2)+C(2,2)
        assert dis.n_binary_classifiers_flat == 4 * 3 // 2


class TestBatchedInference:
    """Parity of the grouped-batch level-2 walk vs the per-row oracle."""

    def test_batched_matches_reference(self, small_world):
        acq, dis, g1, g5 = small_world
        windows = np.concatenate([g1.traces[:15], g5.traces[:15]])
        batched = dis.predict_instructions(windows, adapt=False)
        reference = predict_instructions(dis, windows, adapt=False)
        assert batched == reference

    def test_batched_matches_reference_with_given_groups(self, small_world):
        acq, dis, g1, g5 = small_world
        windows = g5.traces[:20]
        groups = dis.predict_groups(windows, adapt=False)
        assert dis.predict_instructions(
            windows, groups, adapt=False
        ) == predict_instructions(dis, windows, groups, adapt=False)

    def test_missing_level_parity(self, small_world):
        acq, dis, g1, g5 = small_world
        fresh = SideChannelDisassembler(FAST, classifier_factory=QDA)
        fresh.group_model = dis.group_model
        windows = g1.traces[:8]
        assert fresh.predict_instructions(
            windows, adapt=False
        ) == predict_instructions(fresh, windows, adapt=False)


class TestCompileOnce:
    """Each level compiles once, lazily or eagerly, never both."""

    def test_compile_after_lazy_builds_nothing(self, small_world, monkeypatch):
        acq, dis, g1, g5 = small_world
        levels = [dis.group_model, *dis.instruction_models.values(),
                  *dis.register_models.values()]
        for level in levels:
            level.predict(g1.traces[:4], adapt=False)  # compiles lazily
        builds = []
        build = CompiledPipeline.build.__func__

        def counting_build(cls, *args, **kwargs):
            builds.append(args[0])
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(
            CompiledPipeline, "build", classmethod(counting_build)
        )
        outcomes = dis.compile()
        assert outcomes == {"group": True, "I1": True, "I5": True,
                            "Rd": True, "Rr": True}
        assert builds == []


class TestCsaConfigHelper:
    def test_threshold_tightened(self):
        base = FeatureConfig(kl_threshold=0.005, normalize="none")
        adapted = csa_config(base)
        assert adapted.kl_threshold == pytest.approx(0.0005)
        assert adapted.normalize == "batch"

    def test_auto_preserved(self):
        adapted = csa_config(FeatureConfig(kl_threshold="auto"))
        assert adapted.kl_threshold == "auto"
