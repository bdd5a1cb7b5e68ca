"""The memoizing step against the decode-every-step oracle."""

import numpy as np
import pytest

import repro.sim.cpu as cpu_module
from repro.power.acquisition import random_instance
from repro.sim import AvrCpu
from repro.sim.state import SRAM_START
from tests.oracles import cpu_run

_SKIPS = ("CPSE", "SBRC", "SBRS", "SBIC", "SBIS")
_TWO_WORD = ("LDS", "STS", "JMP", "CALL")
#: Preferred aliases (decode to themselves), synonyms (decode to their
#: canonical spec), two-word instructions, memory, stack and the ALU.
_KEYS = _TWO_WORD + (
    "TST", "CLR", "LSL", "BREQ", "BRNE", "SEC", "SBR", "CBR", "ADD", "ADC",
    "SUB", "EOR", "LDI", "ORI", "MUL", "ADIW", "LD_X+", "ST_-Z", "LDD_Y",
    "PUSH", "POP", "IN", "OUT", "SBI", "BST", "BLD", "SWAP", "NOP",
)


def _program(seed: int, length: int = 48):
    """Random instructions; about a third are a skip plus its target."""
    rng = np.random.default_rng(seed)
    program, address = [], 0
    for _ in range(length):
        if rng.random() < 0.3:
            skipped = _TWO_WORD + ("ADD", "NOP")
            keys = (
                _SKIPS[rng.integers(len(_SKIPS))],
                skipped[rng.integers(len(skipped))],
            )
        else:
            keys = (_KEYS[rng.integers(len(_KEYS))],)
        for key in keys:
            instruction = random_instance(key, rng, word_address=address)
            program.append(instruction)
            address += instruction.spec.n_words
    return program


def _core(program, seed: int) -> AvrCpu:
    cpu = AvrCpu(program)
    rng = np.random.default_rng(seed)
    for reg in range(32):
        cpu.state.set_reg(reg, int(rng.integers(0, 256)))
    for low in (26, 28, 30):
        cpu.state.set_reg_pair(low, int(rng.integers(SRAM_START + 0x80, 0x0800)))
    cpu.state.data[SRAM_START:] = rng.integers(
        0, 256, 0x0900 - SRAM_START, dtype=np.uint8
    ).tobytes()
    return cpu


def _assert_same_run(program, seed: int, max_steps=None):
    fast, slow = _core(program, seed), _core(program, seed)
    events = fast.run(max_steps=max_steps)
    assert events == cpu_run(slow, max_steps=max_steps)
    assert fast.state.data == slow.state.data
    assert (fast.state.pc, fast.cycle_count, fast.halted) == (
        slow.state.pc, slow.cycle_count, slow.halted
    )
    return events


def test_fast_step_matches_oracle_on_random_programs():
    seen = set()
    for seed in range(40):
        for event in _assert_same_run(_program(seed), seed):
            spec = event.instruction.spec
            if event.skipped:
                seen.add(f"skip{spec.n_words}")
            seen.add(spec.key)
            if spec.is_alias:
                seen.add("alias")
    # Every input class the memo must get right was exercised.
    assert {"skip1", "skip2", "alias", "TST", "BREQ", "LDS", "JMP", "CALL"} <= seen
    # Synonyms decode to their canonical spec.
    assert {"ORI", "ANDI"} <= seen and not {"SBR", "CBR"} & seen


@pytest.mark.parametrize("seed", [3, 11])
def test_repeated_body_matches_oracle(seed):
    body = _program(seed, length=24)
    # JMP/CALL targets point into the first copy, so the repeats loop.
    events = _assert_same_run(body * 6, seed, max_steps=600)
    assert len(events) == 600


def test_each_flash_window_is_decoded_once_per_core(monkeypatch):
    calls = []
    decode = cpu_module.decode_one

    def counting(words, *args, **kwargs):
        calls.append(tuple(words))
        return decode(words, *args, **kwargs)

    monkeypatch.setattr(cpu_module, "decode_one", counting)
    body = [w for i in _program(5, length=16) if i.spec.key not in ("JMP", "CALL")
            for w in i.encode()]
    cpu = _core(body * 8, 5)
    events = cpu.run()
    assert len(calls) == len(set(calls)) < len(events)
    # A new core starts with an empty memo: nothing carries over.
    calls.clear()
    _core(body * 8, 5).run()
    assert len(calls) == len(set(calls)) > 0


def test_memo_keys_on_the_words_not_the_pc():
    cpu = AvrCpu("inc r1\ninc r1")
    first = cpu.step()
    cpu.flash[1] = cpu.flash[0] = AvrCpu("dec r1").flash[0]
    cpu.state.pc = 0
    assert first.key == "INC"
    assert [e.key for e in cpu.run()] == ["DEC", "DEC"]
