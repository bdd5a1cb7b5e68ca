"""Table-driven ``Instruction.encode`` against the field-by-field oracle."""

import numpy as np
import pytest

from repro.isa import REGISTRY
from repro.isa import operands as op
from repro.isa.assembler import Instruction
from repro.isa.disasm import decode_one
from tests.oracles import encode as oracle_encode


def _draw(rng, kind):
    lo, hi = op._PAIR_SPANS.get(kind) or op._RANGES[kind]
    while True:
        value = int(rng.integers(lo, hi + 1))
        try:
            op.validate(kind, value)
        except op.OperandError:
            continue
        return value


@pytest.mark.parametrize("key", sorted(REGISTRY))
def test_encode_matches_oracle_and_round_trips(key):
    spec = REGISTRY[key]
    rng = np.random.default_rng(sum(map(ord, key)))
    for _ in range(300):
        values = tuple(_draw(rng, o.kind) for o in spec.operands)
        instruction = Instruction(spec, values)
        words = instruction.encode()
        assert words == oracle_encode(instruction)
        assert all(type(w) is int and 0 <= w <= 0xFFFF for w in words)
        decoded, used = decode_one(list(words), prefer_aliases=False)
        assert used == len(words) == spec.n_words
        assert decoded.encode() == words


def test_every_tabulated_value_matches_to_field():
    for spec in REGISTRY.values():
        for table, _ in spec.encoder[1]:
            for value, raw in table.items():
                assert raw == op.to_field(table.kind, value) ^ table.complement


def test_wide_and_illegal_values_fall_back_to_to_field():
    lds = Instruction(REGISTRY["LDS"], (5, 0xABCD))
    jmp = Instruction(REGISTRY["JMP"], (0x3ABCDE,))
    for instruction in (lds, jmp):
        assert instruction.encode() == oracle_encode(instruction)
    # Bypass construction-time validation: encode still rejects.
    bad = object.__new__(Instruction)
    object.__setattr__(bad, "spec", REGISTRY["LDI"])
    object.__setattr__(bad, "values", (3, 7))
    with pytest.raises(op.OperandError):
        bad.encode()
    with pytest.raises(op.OperandError):
        oracle_encode(bad)
