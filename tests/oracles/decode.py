"""Decode oracle: the linear pattern scan.

Tries every canonical spec in :data:`repro.isa.specs.DECODE_ORDER`
(most fixed bits first) against the opcode words and takes the first
match, then applies the alias preferences one call at a time.
:func:`repro.isa.disasm.decode_one` reaches the same answer through a
first-word dispatch table built at import; the two must agree on every
input, ``DisassemblyError`` included.
"""

from typing import Optional, Sequence, Tuple

from repro.isa import operands as op
from repro.isa.assembler import Instruction
from repro.isa.disasm import DisassemblyError
from repro.isa.specs import DECODE_ORDER, REGISTRY, InstructionSpec

from .pattern import pattern_match

# Alias preferences: when a canonical decode has a degenerate operand shape
# the conventional mnemonic is nicer to read (avr-objdump does the same).
_ALIAS_PREFERENCE = {
    # canonical key -> (alias key, predicate on canonical operand values)
    "AND": ("TST", lambda v: v[0] == v[1]),
    "EOR": ("CLR", lambda v: v[0] == v[1]),
    "ADD": ("LSL", lambda v: v[0] == v[1]),
    "ADC": ("ROL", lambda v: v[0] == v[1]),
}

# Fixed-field aliases (``BREQ`` = ``BRBS 1, k``; ``SEC`` = ``BSET 0``; ...):
# canonical key -> aliases in spec-table order (first match wins).
_FIXED_ALIASES: dict = {}
for _alias in REGISTRY.values():
    if _alias.alias_of and _alias.fixed_fields and not _alias.derived_fields:
        if _alias.complement_field is None:
            _FIXED_ALIASES.setdefault(_alias.alias_of, []).append(_alias)


def _operand_values(
    spec: InstructionSpec, fields: dict
) -> Optional[Tuple[int, ...]]:
    values = []
    for spec_op in spec.operands:
        raw = fields.get(spec_op.field)
        if raw is None:
            return None
        if spec.complement_field == spec_op.field:
            raw ^= (1 << spec.compiled.field_width(spec_op.field)) - 1
        values.append(op.from_field(spec_op.kind, raw))
    return tuple(values)


def decode_one(
    words: Sequence[int], prefer_aliases: bool = True
) -> Tuple[Instruction, int]:
    """Reference for :func:`repro.isa.disasm.decode_one`."""
    for spec in DECODE_ORDER:
        fields = pattern_match(spec.compiled, words)
        if fields is None:
            continue
        values = _operand_values(spec, fields)
        if values is None:
            continue
        if prefer_aliases and spec.key in _ALIAS_PREFERENCE:
            alias_key, predicate = _ALIAS_PREFERENCE[spec.key]
            if predicate(values):
                alias = REGISTRY[alias_key]
                return Instruction(alias, values[:1]), spec.n_words
        if prefer_aliases:
            for alias in _FIXED_ALIASES.get(spec.key, ()):
                if all(fields.get(f) == v for f, v in alias.fixed_fields.items()):
                    alias_values = _operand_values(alias, fields)
                    if alias_values is not None:
                        return Instruction(alias, alias_values), spec.n_words
        return Instruction(spec, values), spec.n_words
    raise DisassemblyError(f"cannot decode opcode word 0x{words[0]:04X}")
