"""Event records and pipeline pairing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import REGISTRY
from repro.power.acquisition import random_instance
from repro.sim import (
    AvrCpu,
    ExecEvent,
    MemAccess,
    RegRead,
    RegWrite,
    canonicalize,
    pipeline_slots,
)


class TestEvents:
    def test_alu_event_contents(self):
        cpu = AvrCpu("add r0, r1")
        cpu.state.set_reg(0, 3)
        cpu.state.set_reg(1, 4)
        event = cpu.step()
        assert event.key == "ADD"
        assert [r.reg for r in event.reads] == [0, 1]
        assert event.alu_operands == (3, 4)
        assert event.alu_result == 7
        assert event.writes[0].old == 3 and event.writes[0].new == 7

    def test_sreg_toggled_mask(self):
        cpu = AvrCpu("sec")
        event = cpu.step()
        assert event.sreg_toggled == 0x01

    def test_memory_event(self):
        cpu = AvrCpu("sts 0x0150, r4")
        cpu.state.set_reg(4, 0x99)
        event = cpu.step()
        assert event.mem[0].kind == "store"
        assert event.mem[0].address == 0x0150
        assert event.mem[0].value == 0x99

    def test_branch_event(self):
        cpu = AvrCpu("sec\nbrcs .+0")
        cpu.step()
        event = cpu.step()
        assert event.branch_taken is True

    def test_opcode_words_recorded(self):
        cpu = AvrCpu("lds r0, 0x0123")
        event = cpu.step()
        assert event.opcode_words == (0x9000, 0x0123)


class TestCanonicalize:
    def test_tst(self):
        cpu = AvrCpu("tst r5")
        event = cpu.step()
        canonical = canonicalize(event.instruction)
        assert canonical.spec.key == "AND"
        assert canonical.values == (5, 5)

    def test_breq(self):
        cpu = AvrCpu("breq .+4\nnop\nnop\nnop")
        event = cpu.step()
        canonical = canonicalize(event.instruction)
        assert canonical.spec.key == "BRBS"
        assert canonical.values == (1, 2)

    def test_cbr_complements(self):
        cpu = AvrCpu("cbr r17, 0x0F")
        canonical = canonicalize(cpu.step().instruction)
        assert canonical.spec.key == "ANDI"
        assert canonical.values == (17, 0xF0)

    def test_ser_fixed_value(self):
        cpu = AvrCpu("ser r18")
        canonical = canonicalize(cpu.step().instruction)
        assert canonical.spec.key == "LDI"
        assert canonical.values == (18, 0xFF)

    def test_canonical_passthrough(self):
        cpu = AvrCpu("add r1, r2")
        instruction = cpu.step().instruction
        assert canonicalize(instruction) is instruction


class TestPipeline:
    def test_slots_pair_fetch_with_execute(self):
        cpu = AvrCpu("nop\nadd r0, r1\nnop")
        events = cpu.run()
        slots = pipeline_slots(events)
        assert len(slots) == 3
        assert slots[0].fetch_words == events[1].opcode_words
        assert slots[1].prev_words == events[0].opcode_words
        assert slots[-1].fetch_words == ()
        assert slots[0].prev_words == ()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_every_class_executes(seed):
    """Random instances of every instruction class execute without error."""
    rng = np.random.default_rng(seed)
    for key in REGISTRY:
        instance = random_instance(key, rng, word_address=0)
        cpu = AvrCpu([*instance.encode(), 0x0000, 0x0000, 0x0000])
        cpu.state.x = 0x0200
        cpu.state.y = 0x0300
        cpu.state.z = 0x0400
        event = cpu.step()
        assert event.cycles >= 1


class TestEventRecords:
    def test_defaults_and_derived_fields(self):
        event = AvrCpu("nop").step()
        assert event.reads == () and event.writes == () and event.mem == ()
        assert event.alu_result is None and event.branch_taken is None
        assert event.skipped is False and event.key == "NOP"
        assert event.sreg_toggled == 0

    def test_equality_is_by_type_and_fields(self):
        assert RegRead(1, 2) == RegRead(1, 2)
        assert RegRead(1, 2) != RegRead(1, 3)
        assert RegRead(1, 2) != (1, 2) and not RegRead(1, 2) == (1, 2)
        assert RegWrite(1, 2, 3) != MemAccess(1, 2, 3)
        assert hash(RegWrite(1, 2, 3)) == hash(RegWrite(1, 2, 3))
        a, b = AvrCpu("add r0, r1").step(), AvrCpu("add r0, r1").step()
        assert a == b and ExecEvent(*a) == a
        assert a != tuple(a)

    def test_records_are_immutable(self):
        event = AvrCpu("nop").step()
        with pytest.raises(AttributeError):
            event.pc = 3
