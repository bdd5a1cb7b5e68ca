"""Pattern oracles: set and read opcode bits one at a time.

:meth:`repro.isa.encoding.CompiledPattern.field_runs` splits each field
into contiguous bit runs, and the per-spec tables behind
:meth:`repro.isa.assembler.Instruction.encode` and
:func:`repro.isa.disasm.decode_one` scatter and gather fields run by
run.  These loops walk the pattern's bit positions directly instead; the
encode and decode oracles are built on them.
"""

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.isa.encoding import EncodingError


def pattern_encode(
    pattern, field_values: Mapping[str, int]
) -> Tuple[int, ...]:
    """Opcode words of ``pattern`` with raw ``field_values`` filled in.

    Raises:
        EncodingError: on missing fields or values too wide for the field.
    """
    words = list(pattern.fixed_value)
    for name, positions in pattern.fields.items():
        if name not in field_values:
            raise EncodingError(f"missing field {name!r}")
        value = field_values[name]
        width = len(positions)
        if not 0 <= value < (1 << width):
            raise EncodingError(
                f"field {name!r} value {value} does not fit in {width} bits"
            )
        for i, (word, bit) in enumerate(positions):
            if (value >> (width - 1 - i)) & 1:
                words[word] |= 1 << bit
    return tuple(words)


def pattern_match(pattern, words: Sequence[int]) -> Optional[Dict[str, int]]:
    """Raw field values if ``words`` match ``pattern``, else ``None``."""
    if len(words) < pattern.n_words:
        return None
    for i in range(pattern.n_words):
        if words[i] & pattern.fixed_mask[i] != pattern.fixed_value[i]:
            return None
    out: Dict[str, int] = {}
    for name, positions in pattern.fields.items():
        value = 0
        for word, bit in positions:
            value = (value << 1) | ((words[word] >> bit) & 1)
        out[name] = value
    return out
