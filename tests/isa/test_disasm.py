"""Static disassembler tests: round trips, alias preferences, errors."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import (
    DisassemblyError,
    REGISTRY,
    assemble_line,
    decode_one,
    disassemble,
    disassemble_text,
)
from repro.isa import disasm
from repro.isa.assembler import Instruction
from repro.isa.specs import DECODE_ORDER
from repro.power.acquisition import random_instance
from tests.oracles import decode_one as oracle_decode_one
import numpy as np


class TestDecodeOne:
    def test_simple(self):
        instr, used = decode_one([0x1C12])
        assert instr.key == "ADC"
        assert instr.values == (1, 2)
        assert used == 1

    def test_two_word(self):
        instr, used = decode_one([0x940C, 0x1234])
        assert instr.key == "JMP"
        assert used == 2

    def test_alias_preference_tst(self):
        instr, _ = decode_one(assemble_line("and r5, r5").encode())
        assert instr.key == "TST"

    def test_alias_preference_named_branch(self):
        instr, _ = decode_one(assemble_line("brbs 1, .+4").encode())
        assert instr.key == "BREQ"

    def test_alias_preference_sreg(self):
        instr, _ = decode_one(assemble_line("bset 0").encode())
        assert instr.key == "SEC"

    def test_alias_preference_disabled(self):
        instr, _ = decode_one(
            assemble_line("and r5, r5").encode(), prefer_aliases=False
        )
        assert instr.key == "AND"

    def test_undecodable_word(self):
        # 0xFF0F has bit 3 set where SBRS requires 0bbb with bit3=0... use
        # a word that matches no pattern: 0x9509 is ICALL; craft unused
        # encoding 0x940B (DES-adjacent, absent from our table).
        with pytest.raises(DisassemblyError):
            decode_one([0x940B])


class TestDisassemble:
    def test_stream(self):
        words = []
        for line in ("ldi r16, 85", "lds r4, 0x0123", "eor r16, r17"):
            words.extend(assemble_line(line).encode())
        out = disassemble(words)
        assert [i.key for i in out] == ["LDI", "LDS", "EOR"]

    def test_text_output(self):
        words = assemble_line("ldi r20, 18").encode()
        assert disassemble_text(words) == "ldi r20, 18"


def _draw_instance(rng, key):
    return random_instance(key, rng, word_address=0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(REGISTRY)))
def test_property_encode_decode_round_trip(seed, key):
    """Any encodable instruction decodes back to an equivalent encoding."""
    rng = np.random.default_rng(seed)
    instance = _draw_instance(rng, key)
    words = list(instance.encode())
    decoded, used = decode_one(words, prefer_aliases=False)
    assert used == len(words)
    # The decoded instruction must re-encode to the identical words —
    # aliases may decode to their canonical form, but bits are preserved.
    assert list(decoded.encode()) == words


def _outcome(decode, words, prefer_aliases):
    """``(instruction, n_words)``, or the exception class that stopped it."""
    try:
        return decode(words, prefer_aliases)
    except DisassemblyError:
        return DisassemblyError


def _two_word_first_words():
    """First words matching the fixed bits of some two-word spec."""
    words = np.arange(1 << 16)
    hits = np.zeros(words.shape, dtype=bool)
    for spec in DECODE_ORDER:
        if spec.n_words == 2:
            compiled = spec.compiled
            hits |= (words & compiled.fixed_mask[0]) == compiled.fixed_value[0]
    return set(np.flatnonzero(hits).tolist())


def test_decode_one_matches_linear_scan_on_every_first_word():
    """Table decode == the linear-scan oracle for all 2**16 first words.

    Every first word is decoded in the two-word form with alias
    preference; agreeing on ``DisassemblyError`` counts as agreement.  The
    scan reads one word the same as two unless a two-word spec's fixed
    bits match, and reads it the same without alias preference unless the
    aliased reading is an alias, so the one-word and canonical forms are
    checked on exactly the words where they can differ.
    """
    two_word_firsts = _two_word_first_words()
    assert len(two_word_firsts) == 192  # LDS, STS (32 each), JMP, CALL (64 each)
    mismatches = []
    n_alias_words = 0
    for word in range(1 << 16):
        pair = [word, (word * 40503 + 0x1234) & 0xFFFF]
        aliased = _outcome(oracle_decode_one, pair, True)
        checks = [(pair, True, aliased)]
        if aliased is not DisassemblyError and aliased[0].spec.is_alias:
            checks.append((pair, False, _outcome(oracle_decode_one, pair, False)))
            n_alias_words += 1
        if word in two_word_firsts:
            for prefer in (True, False):
                checks.append(
                    ([word], prefer, _outcome(oracle_decode_one, [word], prefer))
                )
        for words, prefer, expected in checks:
            got = _outcome(decode_one, words, prefer)
            if got != expected:
                mismatches.append((hex(word), len(words), prefer, got, expected))
    assert mismatches[:5] == []
    assert n_alias_words > 2000  # TST/CLR/LSL/ROL, SER, BRxx, SEx/CLx


def test_disassemble_passes_at_most_two_words(monkeypatch):
    """Static disassembly is linear: no call receives the rest of the program."""
    seen = []
    real = disasm.decode_one

    def spy(words, prefer_aliases=True):
        seen.append(len(words))
        return real(words, prefer_aliases)

    monkeypatch.setattr(disasm, "decode_one", spy)
    words = [w for _ in range(50) for w in assemble_line("lds r4, 0x0100").encode()]
    words += assemble_line("nop").encode()
    disasm.disassemble(words)
    assert len(seen) == 51
    assert max(seen) == 2


def test_long_program_disassembles_as_linear_scan():
    """A long program reads the same as the oracle fed the whole remainder."""
    rng = np.random.default_rng(15)
    keys = sorted(REGISTRY)
    words = []
    for _ in range(2000):
        key = keys[int(rng.integers(len(keys)))]
        words.extend(random_instance(key, rng, word_address=len(words)).encode())
    for prefer in (True, False):
        expected = []
        index = 0
        while index < len(words):
            instruction, used = oracle_decode_one(words[index:], prefer)
            expected.append((index, instruction))
            index += used
        assert disassemble(words, prefer) == [i for _, i in expected]
