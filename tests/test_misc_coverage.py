"""Coverage for small public helpers not exercised elsewhere."""

import numpy as np

from repro.core.malware import GoldenReference
from repro.core.sequence import SequenceDisassembler
from repro.isa import assemble_line, decode_one
from repro.isa.operands import OperandKind, is_register
from repro.ml import GaussianHMM
from repro.power import Acquisition, PowerModel
from repro.sim import AvrCpu


class TestIsaHelpers:
    def test_is_register_kinds(self):
        assert is_register(OperandKind.REG)
        assert is_register(OperandKind.REG_PAIR_HIGH)
        assert not is_register(OperandKind.IMM8)
        assert not is_register(OperandKind.REL7)

    def test_cpu_decode_at_matches_decode_one(self):
        cpu = AvrCpu("nop\nadd r1, r2\nlds r4, 0x0100")
        assert cpu.decode_at(1) == decode_one(cpu.flash[1:])
        assert cpu.decode_at(1) == cpu.decode_at(1)
        assert cpu.decode_at(1)[0].spec.key == "ADD"
        instruction, used = cpu.decode_at(2)
        assert (instruction.key, instruction.values, used) == ("LDS", (4, 0x0100), 2)


class TestPowerHelpers:
    def test_slot_starts(self):
        model = PowerModel()
        starts = model.slot_starts(4)
        spc = model.geometry.samples_per_cycle
        assert starts == [0, spc, 2 * spc, 3 * spc]


class TestCoreHelpers:
    def test_golden_from_instructions(self):
        instructions = [assemble_line("add r1, r2")]
        golden = GoldenReference.from_instructions(instructions)
        assert golden.expected_tuple(0) == ("ADD", 1, 2)

    def test_hmm_emission_log_likelihood(self):
        hmm = GaussianHMM(n_states=2)
        X = np.concatenate(
            [np.random.default_rng(0).normal(m, 0.5, (50, 1)) for m in (0, 5)]
        )
        hmm.fit_emissions(X, np.repeat([0, 1], 50))
        log_like = hmm.emission_log_likelihood(np.array([[0.0], [5.0]]))
        assert log_like.shape == (2, 2)
        assert log_like[0, 0] > log_like[0, 1]
        assert log_like[1, 1] > log_like[1, 0]


class TestWorkloadHelpers:
    def test_sequence_prior_from_key_sequences(self):
        # minimal hierarchy via the fixture-free path
        from repro.features import FeatureConfig
        from repro.core import SideChannelDisassembler
        from repro.ml import QDA

        acq = Acquisition(seed=73)
        dis = SideChannelDisassembler(
            FeatureConfig(kl_threshold="auto:0.9", n_components=5),
            classifier_factory=QDA,
        )
        from repro.power.dataset import TraceSet

        w1, p1 = acq.capture_class("ADD", 24, 2)
        w5, p5 = acq.capture_class("LDS", 24, 2)
        group_set = TraceSet(
            np.concatenate([w1, w5]),
            np.repeat([0, 1], 24),
            ("G1", "G5"),
            np.concatenate([p1, p5]),
        )
        dis.fit_group_level(group_set)
        dis.fit_instruction_level(
            1, acq.capture_instruction_set(["ADD", "EOR"], 24, 2)
        )
        seq = SequenceDisassembler(dis).fit_prior_from_sequences(
            [["ADD", "EOR", "ADD", "EOR"]]
        )
        T = seq.hmm.transitions_
        add, eor = seq.classes.index("ADD"), seq.classes.index("EOR")
        assert T[add, eor] > T[add, add]
