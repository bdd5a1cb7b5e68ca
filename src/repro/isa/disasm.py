"""Static (binary -> text) disassembler for AVR opcode words.

This is the *conventional* disassembler operating on machine code.  It is
used to verify the side-channel disassembler's output, to build the golden
instruction flow for malware detection, to decode each instruction the
simulator executes, and to round-trip test the encoder.

Decoding is table-driven.  Every canonical spec's fixed bits sit in its
first opcode word, so the first word alone decides which spec matches
first in :data:`~repro.isa.specs.DECODE_ORDER` (most fixed bits first).
At import, each spec's fixed bits are tested against all 2**16 first
words at once with numpy, which gives two lookups: one over every spec
and one over the one-word specs only, used when fewer than two words
remain.  Alias preferences (``AND r5, r5`` reads as ``TST r5``,
``BRBS 1, k`` as ``BREQ k``) also depend on the first word only, so they
are resolved while the tables are built, from each alias's fixed and
derived fields.  :func:`decode_one` is then one lookup and one operand
extraction.  The tables are immutable and their size is fixed by the
word width; nothing is memoised per decoded word.  The linear pattern
scan they replace is kept as a test oracle, and an exhaustive test holds
the tables to it on every first word.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from . import operands as op
from .assembler import Instruction
from .encoding import CompiledPattern
from .specs import DECODE_ORDER, REGISTRY, InstructionSpec

__all__ = ["DisassemblyError", "decode_one", "disassemble", "disassemble_text"]


class DisassemblyError(ValueError):
    """Raised when opcode words match no known instruction."""


#: Widest field decoded through a lookup table (8-bit immediates); the
#: wider jump offsets and absolute addresses are converted per decode.
_MAX_TABLE_BITS = 8


def _checked_value(kind: op.OperandKind, raw: int) -> int:
    value = op.from_field(kind, raw)
    op.validate(kind, value)
    return value


class _WideField:
    """Stands in for the lookup table of a field too wide to tabulate."""

    __slots__ = ("kind", "complement")

    def __init__(self, kind: op.OperandKind, complement: int) -> None:
        self.kind = kind
        self.complement = complement

    def __getitem__(self, raw: int) -> int:
        return _checked_value(self.kind, raw ^ self.complement)


def _decoded(spec: InstructionSpec, values: Tuple[int, ...]) -> Instruction:
    """An :class:`Instruction` whose operand values are already checked.

    Every value a decoder produces comes from a table checked when it
    was built (or from :class:`_WideField`), so the per-instance check in
    ``Instruction.__post_init__`` would only repeat that work.
    """
    instruction = object.__new__(Instruction)
    object.__setattr__(instruction, "spec", spec)
    object.__setattr__(instruction, "values", values)
    return instruction


class _Decoder:
    """One table entry: the spec to report and how to read its operands.

    ``spec`` is the canonical spec that matched or its preferred alias;
    operand fields are read through the canonical spec's pattern.  Each
    operand is its field's bit runs plus a raw value -> operand value
    table, shared by every field of the same kind, width and complement.
    """

    __slots__ = ("spec", "n_words", "operands")

    def __init__(
        self, spec: InstructionSpec, canonical: InstructionSpec, tables: dict
    ) -> None:
        self.spec = spec
        self.n_words = canonical.n_words
        fields = canonical.compiled.fields
        operands = []
        for spec_op in spec.operands:
            width = len(fields[spec_op.field])
            complement = 0
            if spec.complement_field == spec_op.field:
                complement = (1 << width) - 1
            key = (spec_op.kind, width, complement)
            if key not in tables:
                if width > _MAX_TABLE_BITS:
                    tables[key] = _WideField(spec_op.kind, complement)
                else:
                    tables[key] = tuple(
                        _checked_value(spec_op.kind, raw ^ complement)
                        for raw in range(1 << width)
                    )
            operands.append(
                (canonical.compiled.field_runs(spec_op.field), tables[key])
            )
        self.operands = tuple(operands)

    def __call__(self, words: Sequence[int]) -> Instruction:
        values = []
        for runs, table in self.operands:
            raw = 0
            for index, shift, mask, place in runs:
                raw |= ((words[index] >> shift) & mask) << place
            values.append(table[raw])
        return _decoded(self.spec, tuple(values))


def _first_word_field(
    compiled: CompiledPattern, name: str, words: np.ndarray
) -> np.ndarray:
    """Raw value of field ``name`` for each first word in ``words``."""
    value = np.zeros_like(words)
    for word, bit in compiled.fields[name]:
        if word:
            raise RuntimeError(f"field {name!r} reaches past the first word")
        value = (value << 1) | ((words >> bit) & 1)
    return value


def _preferred_aliases(canonical: InstructionSpec) -> List[InstructionSpec]:
    """Aliases read in place of ``canonical`` when their fields agree.

    An alias qualifies when it pins fields (``BREQ``: ``s = 1``) or ties
    them together (``TST``: ``r = d``); plain synonyms (``SBR``) and
    complemented forms (``CBR``) never replace the canonical reading.
    The first qualifying alias in spec-table order wins.
    """
    return [
        alias
        for alias in REGISTRY.values()
        if alias.alias_of == canonical.key
        and (alias.fixed_fields or alias.derived_fields)
        and alias.complement_field is None
    ]


def _build_tables() -> Tuple[Tuple[object, ...], ...]:
    """First word -> decoder, for {2+, 1} words left x {canonical, aliased}."""
    words = np.arange(1 << 16)
    first_any = np.full(words.shape, -1)
    first_one = np.full(words.shape, -1)
    # Walk the order backwards so the earliest matching spec is written last.
    for index in range(len(DECODE_ORDER) - 1, -1, -1):
        compiled = DECODE_ORDER[index].compiled
        if any(compiled.fixed_mask[1:]):
            raise RuntimeError(
                f"{DECODE_ORDER[index].key}: fixed bits past the first word"
            )
        hit = (words & compiled.fixed_mask[0]) == compiled.fixed_value[0]
        first_any[hit] = index
        if compiled.n_words == 1:
            first_one[hit] = index

    tables: dict = {}
    decoders: list = [_Decoder(spec, spec, tables) for spec in DECODE_ORDER]
    alias_one = first_one.copy()
    for index, canonical in enumerate(DECODE_ORDER):
        aliases = _preferred_aliases(canonical)
        if not aliases:
            continue
        owned = np.flatnonzero(first_one == index)
        field = {
            name: _first_word_field(canonical.compiled, name, owned)
            for name in canonical.compiled.fields
        }
        for alias in reversed(aliases):
            agree = np.ones(owned.shape, dtype=bool)
            for name, const in alias.fixed_fields.items():
                agree &= field[name] == const
            for name, source in alias.derived_fields.items():
                agree &= field[name] == field[source]
            alias_one[owned[agree]] = len(decoders)
            decoders.append(_Decoder(alias, canonical, tables))
    # A one-word spec that wins over all specs also wins over the one-word
    # specs, so its aliases carry over; two-word specs have none.
    alias_any = np.where(first_any == first_one, alias_one, first_any)
    decoders.append(None)  # index -1: no spec matches
    return tuple(
        tuple(map(decoders.__getitem__, table.tolist()))
        for table in (first_any, alias_any, first_one, alias_one)
    )


_CANONICAL, _ALIASED, _CANONICAL_ONE_WORD, _ALIASED_ONE_WORD = _build_tables()


def decode_one(
    words: Sequence[int], prefer_aliases: bool = True
) -> Tuple[Instruction, int]:
    """Decode the instruction starting at ``words[0]``.

    Args:
        words: opcode words; two entries must be present for 32-bit
            instructions.  Entries past the second are ignored.
        prefer_aliases: render ``AND r5,r5`` as ``TST r5`` etc.

    Returns:
        ``(instruction, n_words_consumed)``.

    Raises:
        DisassemblyError: when no pattern matches.
    """
    if len(words) > 1:
        table = _ALIASED if prefer_aliases else _CANONICAL
    else:
        table = _ALIASED_ONE_WORD if prefer_aliases else _CANONICAL_ONE_WORD
    decoder = table[words[0] & 0xFFFF]
    if decoder is None:
        raise DisassemblyError(f"cannot decode opcode word 0x{words[0]:04X}")
    return decoder(words), decoder.n_words


def disassemble(words: Sequence[int], prefer_aliases: bool = True) -> List[Instruction]:
    """Disassemble a flat sequence of opcode words."""
    out: List[Instruction] = []
    index = 0
    while index < len(words):
        instruction, used = decode_one(
            words[index:index + 2], prefer_aliases=prefer_aliases
        )
        out.append(instruction)
        index += used
    return out


def disassemble_text(words: Sequence[int], prefer_aliases: bool = True) -> str:
    """Disassemble to newline-joined assembly text."""
    return "\n".join(i.text() for i in disassemble(words, prefer_aliases))

